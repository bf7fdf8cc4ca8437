// SegmentStore: seal/spill/reload round-trips, budget enforcement, spill
// hygiene and isolation, damaged spill files; ReservoirSampler: determinism, chunking-invariance, k >= n
// degeneration.

#include "table/segment_store.h"

#include <filesystem>
#include <fstream>
#include <memory>
#include <string>
#include <vector>

#include "gtest/gtest.h"
#include "mining/sample.h"
#include "obs/metrics.h"
#include "table/table.h"

namespace dq {
namespace {

Schema TestSchema() {
  Schema schema;
  (void)schema.AddNominal("color", {"red", "green", "blue"});
  (void)schema.AddNumeric("weight", 0.0, 1000.0);
  (void)schema.AddDate("born", 0, 40000);
  return schema;
}

Row MakeRow(size_t i) {
  Row row(3);
  // Every 7th row gets a null to exercise the bitmaps through spills.
  if (i % 7 == 0) {
    row[0] = Value::Null();
  } else {
    row[0] = Value::Nominal(static_cast<int>(i % 3));
  }
  row[1] = Value::Numeric(static_cast<double>(i) * 0.5);
  row[2] = Value::Date(static_cast<int32_t>(1 + i % 39999));
  return row;
}

/// Appends rows [0, n) to a store in chunks of `chunk_rows`, and returns
/// the reference table built by plain appends.
Table FeedStore(const Schema& schema, SegmentStore* store, size_t n,
                size_t chunk_rows) {
  Table reference(schema);
  TableChunk chunk(schema);
  size_t done = 0;
  while (done < n) {
    const size_t batch = std::min(chunk_rows, n - done);
    chunk.Reset(batch);
    for (size_t i = 0; i < batch; ++i) {
      const Row row = MakeRow(done + i);
      for (size_t a = 0; a < row.size(); ++a) chunk.Set(i, a, row[a]);
      reference.AppendRowUnchecked(row);
    }
    EXPECT_TRUE(store->Append(chunk).ok());
    done += batch;
  }
  return reference;
}

void ExpectTablesEqual(const Table& a, const Table& b) {
  ASSERT_EQ(a.num_rows(), b.num_rows());
  ASSERT_EQ(a.num_attributes(), b.num_attributes());
  for (size_t r = 0; r < a.num_rows(); ++r) {
    for (size_t c = 0; c < a.num_attributes(); ++c) {
      ASSERT_TRUE(a.cell(r, c).StrictEquals(b.cell(r, c)))
          << "row " << r << " attr " << c;
    }
  }
}

std::string UniqueSpillDir(const std::string& name) {
  return ::testing::TempDir() + "/segstore_" + name;
}

TEST(SegmentStoreTest, MaterializeEqualsDirectAppendWithoutBudget) {
  const Schema schema = TestSchema();
  SegmentStoreOptions options;
  options.segment_rows = 64;
  SegmentStore store(schema, options);
  const Table reference = FeedStore(schema, &store, 500, 37);
  ASSERT_TRUE(store.Finish().ok());
  EXPECT_EQ(store.num_rows(), 500u);
  EXPECT_GE(store.num_segments(), 5u);
  EXPECT_EQ(store.stats().spill_writes, 0u);

  Table assembled;
  ASSERT_TRUE(store.Materialize(&assembled).ok());
  ExpectTablesEqual(reference, assembled);

  // Segments partition [0, num_rows) in order.
  size_t next = 0;
  for (size_t s = 0; s < store.num_segments(); ++s) {
    EXPECT_EQ(store.segment_base_row(s), next);
    next += store.segment_num_rows(s);
  }
  EXPECT_EQ(next, store.num_rows());
}

TEST(SegmentStoreTest, SegmentsSealAtExactlySegmentRows) {
  // One 1000-slot chunk with every third slot dropped: 667 kept records
  // split into segments of exactly 100, whatever the chunk size.
  const Schema schema = TestSchema();
  SegmentStoreOptions options;
  options.segment_rows = 100;
  SegmentStore store(schema, options);
  TableChunk chunk(schema);
  chunk.Reset(1000);
  std::vector<uint8_t> keep(1000);
  for (size_t i = 0; i < keep.size(); ++i) {
    chunk.Set(i, 0, Value::Nominal(static_cast<int32_t>(i % 3)));
    keep[i] = i % 3 != 2;
  }
  ASSERT_TRUE(store.Append(chunk, &keep).ok());
  ASSERT_TRUE(store.Finish().ok());
  ASSERT_EQ(store.num_rows(), 667u);
  ASSERT_EQ(store.num_segments(), 7u);
  for (size_t s = 0; s < 6; ++s) {
    EXPECT_EQ(store.segment_num_rows(s), 100u);
    EXPECT_EQ(store.segment_base_row(s), s * 100);
  }
  EXPECT_EQ(store.segment_num_rows(6), 67u);
  auto last = store.Pin(6);
  ASSERT_TRUE(last.ok());
  // The last kept slot is 999; slot 998 was dropped.
  EXPECT_EQ((*last)->code_at(66, 0), 999 % 3);
  EXPECT_EQ((*last)->code_at(65, 0), 997 % 3);
  ASSERT_TRUE(store.Unpin(6).ok());
}

TEST(SegmentStoreTest, SpillRoundTripIsBitwiseIdentical) {
  const Schema schema = TestSchema();
  SegmentStoreOptions options;
  options.segment_rows = 50;
  options.memory_budget_bytes = 4096;  // far below the data size
  options.spill_dir = UniqueSpillDir("roundtrip");
  SegmentStore store(schema, options);
  const Table reference = FeedStore(schema, &store, 600, 41);
  ASSERT_TRUE(store.Finish().ok());
  EXPECT_GT(store.stats().spill_writes, 0u);

  Table assembled;
  ASSERT_TRUE(store.Materialize(&assembled).ok());
  EXPECT_GT(store.stats().spill_reads, 0u);
  ExpectTablesEqual(reference, assembled);
}

TEST(SegmentStoreTest, BudgetedAndUnbudgetedStoresAgree) {
  const Schema schema = TestSchema();
  SegmentStoreOptions no_budget;
  no_budget.segment_rows = 48;
  SegmentStore plain(schema, no_budget);
  (void)FeedStore(schema, &plain, 700, 53);
  ASSERT_TRUE(plain.Finish().ok());

  SegmentStoreOptions budgeted = no_budget;
  budgeted.memory_budget_bytes = 2048;
  budgeted.spill_dir = UniqueSpillDir("agree");
  SegmentStore spilling(schema, budgeted);
  (void)FeedStore(schema, &spilling, 700, 53);
  ASSERT_TRUE(spilling.Finish().ok());
  EXPECT_GT(spilling.stats().spill_writes, 0u);

  // Identical segment boundaries regardless of residency...
  ASSERT_EQ(plain.num_segments(), spilling.num_segments());
  for (size_t s = 0; s < plain.num_segments(); ++s) {
    EXPECT_EQ(plain.segment_base_row(s), spilling.segment_base_row(s));
    EXPECT_EQ(plain.segment_num_rows(s), spilling.segment_num_rows(s));
  }
  // ...and identical assembled bytes.
  Table a;
  Table b;
  ASSERT_TRUE(plain.Materialize(&a).ok());
  ASSERT_TRUE(spilling.Materialize(&b).ok());
  ExpectTablesEqual(a, b);
}

TEST(SegmentStoreTest, PinReloadsAndUnpinReEvicts) {
  const Schema schema = TestSchema();
  SegmentStoreOptions options;
  options.segment_rows = 40;
  options.memory_budget_bytes = 1;  // evict everything evictable
  options.spill_dir = UniqueSpillDir("pin");
  SegmentStore store(schema, options);
  const Table reference = FeedStore(schema, &store, 200, 40);
  ASSERT_TRUE(store.Finish().ok());
  ASSERT_GE(store.num_segments(), 2u);
  EXPECT_FALSE(store.segment_resident(0));

  auto pinned = store.Pin(0);
  ASSERT_TRUE(pinned.ok());
  EXPECT_TRUE(store.segment_resident(0));
  EXPECT_EQ((*pinned)->num_rows(), store.segment_num_rows(0));
  ASSERT_TRUE((*pinned)->cell(0, 1).StrictEquals(reference.cell(0, 1)));
  const uint64_t writes_before = store.stats().spill_writes;
  ASSERT_TRUE(store.Unpin(0).ok());
  // Over budget again after unpin: the reloaded copy is dropped, but the
  // spill file already exists so no second write happens.
  EXPECT_FALSE(store.segment_resident(0));
  EXPECT_EQ(store.stats().spill_writes, writes_before);
}

TEST(SegmentStoreTest, SpillFilesAreRemovedOnDestruction) {
  const Schema schema = TestSchema();
  const std::string dir = UniqueSpillDir("cleanup");
  {
    SegmentStoreOptions options;
    options.segment_rows = 32;
    options.memory_budget_bytes = 1024;
    options.spill_dir = dir;
    SegmentStore store(schema, options);
    (void)FeedStore(schema, &store, 300, 32);
    ASSERT_TRUE(store.Finish().ok());
    ASSERT_GT(store.stats().spill_writes, 0u);
    EXPECT_TRUE(std::filesystem::exists(dir));
  }
  EXPECT_FALSE(std::filesystem::exists(dir));
}

TEST(SegmentStoreTest, StoresSharingASpillDirKeepTheirOwnFiles) {
  // Two stores spilling into one root at the same time (two concurrent
  // budgeted audits of one input) must never read each other's files.
  const Schema schema = TestSchema();
  const std::string dir = UniqueSpillDir("shared");
  SegmentStoreOptions options;
  options.segment_rows = 40;
  options.memory_budget_bytes = 1;  // evict everything evictable
  options.spill_dir = dir;
  auto first = std::make_unique<SegmentStore>(schema, options);
  SegmentStore second(schema, options);
  // Different contents per store: the second one is fed a shifted stream.
  const Table ref_first = FeedStore(schema, first.get(), 200, 40);
  Table ref_second(schema);
  {
    TableChunk chunk(schema);
    for (size_t r0 = 0; r0 < 240; r0 += 40) {
      chunk.Reset(40);
      for (size_t i = 0; i < 40; ++i) {
        const Row row = MakeRow(1000 + r0 + i);
        for (size_t a = 0; a < row.size(); ++a) chunk.Set(i, a, row[a]);
        ref_second.AppendRowUnchecked(row);
      }
      ASSERT_TRUE(second.Append(chunk).ok());
    }
  }
  ASSERT_TRUE(first->Finish().ok());
  ASSERT_TRUE(second.Finish().ok());
  ASSERT_GT(first->stats().spill_writes, 0u);
  ASSERT_GT(second.stats().spill_writes, 0u);

  // A spill reload is paging, not ingest.
  obs::Counter* const ingested = obs::GetCounter("ingest.records_total");
  const uint64_t ingested_before = ingested->Value();
  // Interleave reloads of equally numbered segments across the stores.
  for (size_t s = 0; s < first->num_segments(); ++s) {
    auto a = first->Pin(s);
    auto b = second.Pin(s);
    ASSERT_TRUE(a.ok()) << a.status().ToString();
    ASSERT_TRUE(b.ok()) << b.status().ToString();
    for (size_t r = 0; r < (*a)->num_rows(); ++r) {
      const size_t base_a = first->segment_base_row(s);
      const size_t base_b = second.segment_base_row(s);
      for (size_t c = 0; c < 3; ++c) {
        ASSERT_TRUE((*a)->cell(r, c).StrictEquals(
            ref_first.cell(base_a + r, c)));
        ASSERT_TRUE((*b)->cell(r, c).StrictEquals(
            ref_second.cell(base_b + r, c)));
      }
    }
    ASSERT_TRUE(first->Unpin(s).ok());
    ASSERT_TRUE(second.Unpin(s).ok());
  }
  EXPECT_GT(first->stats().spill_reads, 0u);
  EXPECT_EQ(ingested->Value(), ingested_before);

  // The first store leaving takes only its own files with it.
  first.reset();
  EXPECT_TRUE(std::filesystem::exists(dir));
  Table assembled;
  ASSERT_TRUE(second.Materialize(&assembled).ok());
  ExpectTablesEqual(ref_second, assembled);
}

/// Path of segment `index`'s spill file somewhere under `dir`.
std::string FindSpillFile(const std::string& dir, size_t index) {
  const std::string name = "seg-" + std::to_string(index) + ".dqcol";
  for (const auto& entry :
       std::filesystem::recursive_directory_iterator(dir)) {
    if (entry.path().filename() == name) return entry.path().string();
  }
  return "";
}

TEST(SegmentStoreTest, DamagedSpillFileYieldsStatus) {
  const Schema schema = TestSchema();
  enum class Damage { kMagic, kTruncated, kOutOfDomainCode };
  for (Damage damage :
       {Damage::kMagic, Damage::kTruncated, Damage::kOutOfDomainCode}) {
    const std::string dir =
        UniqueSpillDir("damaged" + std::to_string(static_cast<int>(damage)));
    SegmentStoreOptions options;
    options.segment_rows = 64;
    options.memory_budget_bytes = 1;
    options.spill_dir = dir;
    SegmentStore store(schema, options);
    (void)FeedStore(schema, &store, 256, 64);
    ASSERT_TRUE(store.Finish().ok());
    ASSERT_FALSE(store.segment_resident(0));
    const std::string path = FindSpillFile(dir, 0);
    ASSERT_FALSE(path.empty());

    const size_t rows = store.segment_num_rows(0);
    const auto size = std::filesystem::file_size(path);
    std::fstream f(path, std::ios::in | std::ios::out | std::ios::binary);
    ASSERT_TRUE(f.good());
    switch (damage) {
      case Damage::kMagic:
        f.seekp(0);
        f.put('X');
        break;
      case Damage::kTruncated:
        f.close();
        std::filesystem::resize_file(path, size - 10);
        break;
      case Damage::kOutOfDomainCode: {
        // The column blocks close the file: per attribute a type byte, the
        // payload and the null bitmap. Row 1 of "color" (attribute 0) is
        // non-null; give it a code past the three categories.
        const size_t words = (rows + 63) / 64;
        const size_t columns = (1 + 4 * rows + 8 * words) +
                               (1 + 8 * rows + 8 * words) +
                               (1 + 4 * rows + 8 * words);
        const int32_t bad_code = 7;
        f.seekp(static_cast<std::streamoff>(size - columns + 1 + 4));
        f.write(reinterpret_cast<const char*>(&bad_code), sizeof(bad_code));
        break;
      }
    }
    if (f.is_open()) f.close();
    auto pinned = store.Pin(0);
    EXPECT_FALSE(pinned.ok()) << "damage " << static_cast<int>(damage);
  }
}

TEST(ReservoirSamplerTest, SameSeedSameStreamSameSample) {
  const Schema schema = TestSchema();
  ReservoirSampler a(25, 7);
  ReservoirSampler b(25, 7);
  for (size_t i = 0; i < 400; ++i) {
    a.Offer(MakeRow(i));
    b.Offer(MakeRow(i));
  }
  ExpectTablesEqual(a.BuildSampleTable(schema), b.BuildSampleTable(schema));
  EXPECT_EQ(a.sample_size(), 25u);
  EXPECT_EQ(a.rows_seen(), 400u);
}

TEST(ReservoirSamplerTest, CapacityAtLeastStreamKeepsEveryRowInOrder) {
  const Schema schema = TestSchema();
  ReservoirSampler sampler(500, 99);
  Table reference(schema);
  for (size_t i = 0; i < 123; ++i) {
    const Row row = MakeRow(i);
    sampler.Offer(row);
    reference.AppendRowUnchecked(row);
  }
  // k >= n: the reservoir is the whole stream in original order — the
  // property that makes the streaming audit reproduce the classic path.
  ExpectTablesEqual(reference, sampler.BuildSampleTable(schema));
}

TEST(ReservoirSamplerTest, HugeCapacityHoldsOnlyTheRowsSeen) {
  // Slots grow as rows arrive: a capacity far beyond memory reserves
  // nothing up front, and a short stream is sampled whole.
  const Schema schema = TestSchema();
  ReservoirSampler sampler(size_t{1000000000000}, 5);
  Table reference(schema);
  for (size_t i = 0; i < 3; ++i) {
    sampler.Offer(MakeRow(i));
    reference.AppendRowUnchecked(MakeRow(i));
  }
  EXPECT_EQ(sampler.sample_size(), 3u);
  ExpectTablesEqual(reference, sampler.BuildSampleTable(schema));
}

TEST(ReservoirSamplerTest, SampleRowsComeFromTheStream) {
  const Schema schema = TestSchema();
  ReservoirSampler sampler(10, 3);
  for (size_t i = 0; i < 1000; ++i) sampler.Offer(MakeRow(i));
  const Table sample = sampler.BuildSampleTable(schema);
  ASSERT_EQ(sample.num_rows(), 10u);
  for (size_t r = 0; r < sample.num_rows(); ++r) {
    // weight = i * 0.5 identifies the source row; verify the whole row.
    const double weight = sample.cell(r, 1).numeric();
    const auto i = static_cast<size_t>(weight * 2.0);
    ASSERT_LT(i, 1000u);
    const Row expected = MakeRow(i);
    for (size_t a = 0; a < 3; ++a) {
      ASSERT_TRUE(sample.cell(r, a).StrictEquals(expected[a]));
    }
  }
}

}  // namespace
}  // namespace dq
