// Crash-recovery matrix for the persistent result store plus the
// fault-injected refresh paths of the serving layer: torn appends at every
// byte boundary must leave the prior segments loadable, and a damaged or
// transiently-failing store must heal through EvalService::refresh without
// losing completed results.

#include <gtest/gtest.h>

#include <cstdio>
#include <string>

#include "core/fault.hpp"
#include "search/eval_cache.hpp"
#include "search/result_store.hpp"
#include "serve/json.hpp"
#include "serve/service.hpp"
#include "test_paths.hpp"

namespace naas {
namespace {

using core::ScopedFaults;
using search::ResultStore;
using search::StoreEntries;
using search::StoreStatus;
using serve::EvalService;
using serve::ServeOptions;

std::string temp_store_path(const std::string& name) {
  return test::unique_temp_path("faults_" + name + ".bin");
}

search::MappingSearchResult sample_result(int salt) {
  search::MappingSearchResult res;
  res.best.dram.order = {nn::Dim::kK, nn::Dim::kC, nn::Dim::kN, nn::Dim::kYp,
                         nn::Dim::kXp, nn::Dim::kR, nn::Dim::kS};
  res.best.dram.tile = {1, 32, 16, 7, 7, 3, 3};
  res.best.pe.tile = {1, 4, 8, 2, 2, 3, 1};
  res.report.legal = true;
  res.report.macs = 1000.0 + salt;
  res.best_edp = 1e9 + salt;
  res.evaluations = salt;
  return res;
}

StoreEntries one_entry(std::uint64_t key) {
  StoreEntries entries;
  entries.emplace_back(key, sample_result(static_cast<int>(key)));
  return entries;
}

void write_file(const std::string& path, const std::string& bytes) {
  FILE* f = std::fopen(path.c_str(), "wb");
  ASSERT_NE(f, nullptr);
  ASSERT_EQ(std::fwrite(bytes.data(), 1, bytes.size(), f), bytes.size());
  ASSERT_EQ(std::fclose(f), 0);
}

ServeOptions tiny_options(const std::string& store_path) {
  ServeOptions opts;
  opts.mapping.population = 6;
  opts.mapping.iterations = 3;
  opts.num_threads = 1;
  opts.store_path = store_path;
  return opts;
}

std::string search_line(int id, int index) {
  return "{\"id\":" + std::to_string(id) +
         ",\"method\":\"search_mapping\",\"arch\":{\"preset\":\"nvdla256\"},"
         "\"layer\":{\"network\":\"squeezenet\",\"index\":" +
         std::to_string(index) + "}}";
}

// ------------------------------------------------- torn-append byte matrix

TEST(StoreFaults, TruncationAtEveryByteBoundaryKeepsPriorSegments) {
  // A store of one saved segment plus one appended segment, then the file
  // cut at *every* possible length: however far the torn append got, the
  // first segment must stay loadable (and a cut inside the first segment
  // must salvage nothing rather than something wrong).
  const std::string seg1 = ResultStore::encode(one_entry(11));
  const std::string seg2 = ResultStore::encode(one_entry(22));
  const std::string full = seg1 + seg2;
  const std::string path = temp_store_path("truncation_matrix");

  for (std::size_t cut = 1; cut < full.size(); ++cut) {
    write_file(path, full.substr(0, cut));
    const search::StoreLoadResult loaded = ResultStore::load(path);
    if (cut < seg1.size()) {
      EXPECT_EQ(loaded.status, StoreStatus::kCorrupt) << "cut=" << cut;
      EXPECT_TRUE(loaded.entries.empty()) << "cut=" << cut;
    } else if (cut == seg1.size()) {
      // The tear happened before the append wrote its first byte: this is
      // simply the prior store, fully valid.
      EXPECT_EQ(loaded.status, StoreStatus::kOk) << "cut=" << cut;
      ASSERT_EQ(loaded.entries.size(), 1u) << "cut=" << cut;
      EXPECT_EQ(loaded.entries[0].first, 11u);
    } else {
      EXPECT_EQ(loaded.status, StoreStatus::kCorrupt) << "cut=" << cut;
      ASSERT_EQ(loaded.entries.size(), 1u) << "cut=" << cut;
      EXPECT_EQ(loaded.entries[0].first, 11u) << "cut=" << cut;
    }
  }
  std::remove(path.c_str());
}

TEST(StoreFaults, GarbageTailSalvagesEverySegmentBeforeIt) {
  const std::string seg1 = ResultStore::encode(one_entry(1));
  const std::string seg2 = ResultStore::encode(one_entry(2));
  const std::string path = temp_store_path("garbage_tail");
  write_file(path, seg1 + seg2 + "not a segment at all");
  const search::StoreLoadResult loaded = ResultStore::load(path);
  EXPECT_EQ(loaded.status, StoreStatus::kCorrupt);
  ASSERT_EQ(loaded.entries.size(), 2u);
  EXPECT_EQ(loaded.entries[0].first, 1u);
  EXPECT_EQ(loaded.entries[1].first, 2u);
  std::remove(path.c_str());
}

TEST(StoreFaults, WarmStartAdoptsSalvagedPrefix) {
  const std::string seg1 = ResultStore::encode(one_entry(7));
  const std::string path = temp_store_path("warm_salvage");
  write_file(path, seg1 + std::string(64, '\xee'));
  search::EvalCache cache;
  EXPECT_EQ(search::warm_start_cache(cache, path), 1u);
  EXPECT_NE(cache.find(7), nullptr);
  std::remove(path.c_str());
}

// ------------------------------------------------ injected append failures

TEST(StoreFaults, TornAppendFaultLeavesStoreSalvageable) {
  const std::string path = temp_store_path("torn_site");
  std::remove(path.c_str());
  ASSERT_EQ(ResultStore::save(path, one_entry(1)), StoreStatus::kOk);
  {
    ScopedFaults faults("store_append_torn=1@1");
    EXPECT_EQ(ResultStore::append(path, one_entry(2)), StoreStatus::kIoError);
  }
  // Half a segment landed and stayed (the crash case the rollback cannot
  // reach). Loading salvages the first segment.
  const search::StoreLoadResult loaded = ResultStore::load(path);
  EXPECT_EQ(loaded.status, StoreStatus::kCorrupt);
  ASSERT_EQ(loaded.entries.size(), 1u);
  EXPECT_EQ(loaded.entries[0].first, 1u);
  std::remove(path.c_str());
}

TEST(StoreFaults, AppendFailFaultLeavesFileUntouched) {
  const std::string path = temp_store_path("append_fail_site");
  std::remove(path.c_str());
  ASSERT_EQ(ResultStore::save(path, one_entry(1)), StoreStatus::kOk);
  {
    ScopedFaults faults("store_append_fail=1@1");
    EXPECT_EQ(ResultStore::append(path, one_entry(2)), StoreStatus::kIoError);
    // The fault fires before any byte: the next attempt succeeds cleanly.
    EXPECT_EQ(ResultStore::append(path, one_entry(2)), StoreStatus::kOk);
  }
  const search::StoreLoadResult loaded = ResultStore::load(path);
  EXPECT_EQ(loaded.status, StoreStatus::kOk);
  EXPECT_EQ(loaded.entries.size(), 2u);
  std::remove(path.c_str());
}

TEST(StoreFaults, LoadCorruptFaultDamagesMemoryNotDisk) {
  const std::string path = temp_store_path("load_corrupt_site");
  std::remove(path.c_str());
  ASSERT_EQ(ResultStore::save(path, one_entry(1)), StoreStatus::kOk);
  {
    ScopedFaults faults("store_load_corrupt=1@1");
    EXPECT_EQ(ResultStore::load(path).status, StoreStatus::kCorrupt);
  }
  // The flip happened in the read buffer; the file itself is intact.
  EXPECT_EQ(ResultStore::load(path).status, StoreStatus::kOk);
  std::remove(path.c_str());
}

// ------------------------------------------- service-level heal and retry

TEST(StoreFaults, ServiceRetriesTransientAppendAndSucceeds) {
  const std::string path = temp_store_path("service_retry");
  std::remove(path.c_str());
  EvalService service(tiny_options(path));
  service.handle_line(search_line(1, 0));
  search::StoreStatus status;
  {
    // First refresh attempt hits the transient failure; the in-place
    // retry (after backoff) flushes successfully within the same call.
    ScopedFaults faults("store_append_fail=1@1");
    status = service.refresh();
  }
  EXPECT_EQ(status, StoreStatus::kOk);
  EXPECT_GE(service.stats().store_refresh_retries, 1);
  EXPECT_EQ(service.stats().store_appends, 1);
  const search::StoreLoadResult loaded = ResultStore::load(path);
  EXPECT_EQ(loaded.status, StoreStatus::kOk);
  EXPECT_EQ(loaded.entries.size(), 1u);
  std::remove(path.c_str());
}

TEST(StoreFaults, ServiceHealsTornAppendByAtomicRewrite) {
  const std::string path = temp_store_path("service_torn_heal");
  std::remove(path.c_str());
  EvalService service(tiny_options(path));
  service.handle_line(search_line(1, 0));
  ASSERT_EQ(service.refresh(), StoreStatus::kOk);  // one clean segment
  service.handle_line(search_line(2, 1));
  search::StoreStatus status;
  {
    // The append tears mid-segment; the retry pass notices the damaged
    // file (reload-on-change -> kCorrupt) and heals it by atomic rewrite
    // from the full cache — both results survive.
    ScopedFaults faults("store_append_torn=1@1");
    status = service.refresh();
  }
  EXPECT_EQ(status, StoreStatus::kOk);
  EXPECT_EQ(service.stats().store_rewrites, 1);
  EXPECT_GE(service.stats().store_refresh_retries, 1);
  const search::StoreLoadResult loaded = ResultStore::load(path);
  EXPECT_EQ(loaded.status, StoreStatus::kOk);
  EXPECT_EQ(loaded.entries.size(), 2u);
  std::remove(path.c_str());
}

TEST(StoreFaults, BootFromTornFileSalvagesThenHeals) {
  const std::string path = temp_store_path("boot_torn");
  std::remove(path.c_str());
  // A prior process crashed mid-append: one good segment, half a second.
  const std::string seg1 = ResultStore::encode(one_entry(33));
  const std::string seg2 = ResultStore::encode(one_entry(44));
  write_file(path, seg1 + seg2.substr(0, seg2.size() / 2));

  EvalService service(tiny_options(path));
  // Boot salvaged the good segment into the cache...
  EXPECT_EQ(service.evaluator().store_entries_loaded(), 1u);
  // ...and the first refresh heals the file by atomic rewrite.
  EXPECT_EQ(service.refresh(), StoreStatus::kOk);
  EXPECT_EQ(service.stats().store_rewrites, 1);
  const search::StoreLoadResult loaded = ResultStore::load(path);
  EXPECT_EQ(loaded.status, StoreStatus::kOk);
  ASSERT_EQ(loaded.entries.size(), 1u);
  EXPECT_EQ(loaded.entries[0].first, 33u);
  std::remove(path.c_str());
}

TEST(StoreFaults, RefreshFailFaultIsRetriedAndMetered) {
  const std::string path = temp_store_path("refresh_fail");
  std::remove(path.c_str());
  EvalService service(tiny_options(path));
  service.handle_line(search_line(1, 0));
  search::StoreStatus status;
  {
    ScopedFaults faults("refresh_fail=1@2");
    status = service.refresh();  // attempts 1+2 fail, attempt 3 flushes
  }
  EXPECT_EQ(status, StoreStatus::kOk);
  EXPECT_EQ(service.stats().store_refresh_retries, 2);
  EXPECT_EQ(ResultStore::load(path).status, StoreStatus::kOk);
  std::remove(path.c_str());
}

TEST(StoreFaults, RefreshReportsFailureWhenRetriesExhaust) {
  const std::string path = temp_store_path("refresh_exhaust");
  std::remove(path.c_str());
  EvalService service(tiny_options(path));
  service.handle_line(search_line(1, 0));
  {
    ScopedFaults faults("refresh_fail=1");
    EXPECT_EQ(service.refresh(), StoreStatus::kIoError);
    EXPECT_EQ(service.stats().store_refresh_retries, 2);
  }
  // Nothing was lost: the next (healthy) refresh flushes the held-back
  // entries.
  EXPECT_EQ(service.refresh(), StoreStatus::kOk);
  const search::StoreLoadResult loaded = ResultStore::load(path);
  EXPECT_EQ(loaded.status, StoreStatus::kOk);
  EXPECT_EQ(loaded.entries.size(), 1u);
  std::remove(path.c_str());
}

}  // namespace
}  // namespace naas
