#include "audit/error_confidence.h"

#include <algorithm>

#include "stats/confidence.h"

namespace dq {

double ErrorConfidence(const Prediction& prediction, int observed_class,
                       double confidence_level, bool flag_nulls) {
  return ErrorConfidence(
      prediction.distribution.data(),
      static_cast<int>(prediction.distribution.size()),
      prediction.PredictedClass(), prediction.support, observed_class,
      ZForConfidence(confidence_level), flag_nulls);
}

double ErrorConfidence(const double* distribution, int num_classes,
                       int predicted, double support, int observed_class,
                       double z, bool flag_nulls) {
  if (predicted < 0 || support <= 0.0) return 0.0;
  if (observed_class == predicted) return 0.0;
  if (observed_class < 0 && !flag_nulls) return 0.0;

  const double p_pred = distribution[predicted];
  const double p_obs = observed_class < 0 || observed_class >= num_classes
                           ? 0.0
                           : distribution[observed_class];
  return std::max(0.0, WilsonIntervalZ(p_pred, support, z).left -
                           WilsonIntervalZ(p_obs, support, z).right);
}

double CombineErrorConfidences(const std::vector<double>& confidences) {
  double best = 0.0;
  for (double c : confidences) best = std::max(best, c);
  return best;
}

}  // namespace dq
