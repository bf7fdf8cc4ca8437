// Seeded mutation suites for the on-disk readers not covered elsewhere:
// CSV, dqcol (interchange files and segment-store spill files) and the
// run-history JSONL ledger. Every mutant must load or fail with a Status
// within a time bound, never abort, hang or touch memory it does not own
// (the sanitizer builds run this suite too).

#include <filesystem>
#include <sstream>
#include <string>

#include "gtest/gtest.h"
#include "mutation.h"
#include "obs/history.h"
#include "quis/quis_sample.h"
#include "table/columnar.h"
#include "table/csv.h"
#include "table/segment_store.h"

namespace dq {
namespace {

constexpr double kMaxMutantMs = 2000.0;

std::string ScratchPath(const std::string& suffix) {
  const ::testing::TestInfo* info =
      ::testing::UnitTest::GetInstance()->current_test_info();
  return ::testing::TempDir() + "/reader_mutation_" + info->name() + suffix;
}

Table SmallQuisTable() {
  QuisConfig config;
  config.num_records = 300;
  config.seed = 5;
  auto sample = GenerateQuisSample(config);
  EXPECT_TRUE(sample.ok());
  Table table = std::move(sample->table);
  // A few nulls, so the null bitmaps and sentinels are part of the input.
  for (size_t r = 0; r < table.num_rows(); r += 17) {
    table.SetCell(r, r % table.num_attributes(), Value::Null());
  }
  return table;
}

/// Feeds every mutant of `valid` through `read` (which writes the mutant
/// wherever its reader looks and returns the reader's Status) and checks
/// that both outcomes occur and no mutant stalls the reader.
template <typename ReadFn>
void ExpectStatusNotCrash(const std::string& valid, uint64_t seed,
                          ReadFn&& read) {
  size_t accepted = 0;
  size_t rejected = 0;
  double slowest_ms = 0.0;
  for (const std::string& mutant : Mutants(valid, seed)) {
    Status status;
    slowest_ms =
        std::max(slowest_ms, TimeMs([&] { status = read(mutant); }));
    if (status.ok()) {
      ++accepted;
    } else {
      ++rejected;
    }
  }
  EXPECT_GT(rejected, 0u);
  EXPECT_GT(accepted, 0u);
  EXPECT_LT(slowest_ms, kMaxMutantMs);
}

TEST(ReaderMutationTest, MutatedCsvYieldsStatusNotCrash) {
  const Table table = SmallQuisTable();
  std::ostringstream csv;
  ASSERT_TRUE(WriteCsv(table, &csv, CsvOptions()).ok());
  const std::string path = ScratchPath(".csv");
  ExpectStatusNotCrash(csv.str(), 2003, [&](const std::string& mutant) {
    WriteTextFile(path, mutant);
    auto loaded = ReadCsvFile(table.schema(), path);
    if (loaded.ok()) {
      EXPECT_TRUE(loaded->Validate().ok());
    }
    return loaded.status();
  });
  std::filesystem::remove(path);
}

TEST(ReaderMutationTest, MutatedDqcolYieldsStatusNotCrash) {
  const Table table = SmallQuisTable();
  const std::string path = ScratchPath(".dqcol");
  ASSERT_TRUE(WriteDqcolFile(table, path).ok());
  const std::string valid = ReadTextFile(path);
  ExpectStatusNotCrash(valid, 2004, [&](const std::string& mutant) {
    WriteTextFile(path, mutant);
    auto loaded = ReadDqcolFile(table.schema(), path);
    if (loaded.ok()) {
      EXPECT_TRUE(loaded->Validate().ok());
    }
    return loaded.status();
  });
  std::filesystem::remove(path);
}

TEST(ReaderMutationTest, MutatedSpillFileYieldsStatusNotCrash) {
  // A one-byte budget spills every sealed segment; each mutant replaces
  // segment 0's spill file before the store pins (reloads) it.
  const Table table = SmallQuisTable();
  SegmentStoreOptions options;
  options.segment_rows = 100;
  options.memory_budget_bytes = 1;
  options.spill_dir = ScratchPath("_spill");
  SegmentStore store(table.schema(), options);
  TableChunk chunk(table.schema());
  chunk.Reset(table.num_rows());
  for (size_t r = 0; r < table.num_rows(); ++r) {
    for (size_t a = 0; a < table.num_attributes(); ++a) {
      chunk.Set(r, a, table.cell(r, a));
    }
  }
  ASSERT_TRUE(store.Append(chunk).ok());
  ASSERT_TRUE(store.Finish().ok());
  ASSERT_EQ(store.num_segments(), 3u);
  ASSERT_FALSE(store.segment_resident(0));
  std::string path;
  for (const auto& entry :
       std::filesystem::recursive_directory_iterator(options.spill_dir)) {
    if (entry.path().filename() == "seg-0.dqcol") path = entry.path();
  }
  ASSERT_FALSE(path.empty());
  const std::string valid = ReadTextFile(path);
  ExpectStatusNotCrash(valid, 2005, [&](const std::string& mutant) {
    WriteTextFile(path, mutant);
    auto pinned = store.Pin(0);
    if (!pinned.ok()) return pinned.status();
    EXPECT_TRUE((*pinned)->Validate().ok());
    return store.Unpin(0);  // over budget: drops the reloaded copy again
  });
}

TEST(ReaderMutationTest, MutatedHistoryLedgerYieldsStatusNotCrash) {
  const std::string dir = ScratchPath("_history");
  std::filesystem::remove_all(dir);
  const obs::HistoryStore store(dir);
  for (uint64_t run = 0; run < 4; ++run) {
    obs::HistoryRecord record;
    record.manifest.tool = "dqaudit";
    record.manifest.seed = run;
    record.manifest.threads_used = 2;
    record.manifest.input_hashes = {{"data", "abcd"}};
    record.summary.records = 1000 + run;
    record.summary.suspicious = 10 + run;
    record.summary.suspicion_rate = 0.01;
    record.summary.rule_violations = {{"BRV = 404 -> GBM = 901", 3}};
    record.summary.top_confidences = {0.99, 0.9};
    record.summary.timings_ms = {{"ingest", 1.5}};
    record.metrics.counters = {{"c45.nodes", 40 + run}};
    ASSERT_TRUE(store.Append(record).ok());
  }
  const std::string valid = ReadTextFile(store.ledger_path());
  size_t damaged_total = 0;
  ExpectStatusNotCrash(valid, 2006, [&](const std::string& mutant) {
    WriteTextFile(store.ledger_path(), mutant);
    size_t damaged = 0;
    auto records = store.ReadAll(&damaged);
    damaged_total += damaged;
    // A damaged line is skipped and counted, so the ledger still reads;
    // report it as a rejection to tell the two outcomes apart.
    if (records.ok() && damaged > 0) {
      return Status::InvalidArgument("damaged lines");
    }
    return records.status();
  });
  EXPECT_GT(damaged_total, 0u);
  std::filesystem::remove_all(dir);
}

}  // namespace
}  // namespace dq
