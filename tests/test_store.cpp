// The persistent compiled-block store: round-trip bit-exactness, per-record
// validation (truncated / corrupted / wrong-version / wrong-fingerprint files
// degrade to cold compilation without crashing), executor warm-start across
// cache instances (the cross-process story), write-through from concurrent
// sweep workers, the store-load stats counters, and the CompiledSchedule IR
// payload serialization.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstdio>
#include <cstring>
#include <fstream>
#include <map>
#include <string>
#include <vector>

#include "backend/presets.hpp"
#include "common/error.hpp"
#include "common/rng.hpp"
#include "core/executor.hpp"
#include "core/workflow.hpp"
#include "graph/instances.hpp"
#include "pulsesim/simulator.hpp"
#include "serve/block_cache.hpp"
#include "serve/block_store.hpp"
#include "serve/job.hpp"
#include "serve/job_service.hpp"

using namespace hgp;
using core::CompiledBlock;
using core::ExecOp;
using core::Executor;
using core::ExecutorOptions;
using core::Program;
using serve::BlockCache;
using serve::BlockKind;
using serve::BlockStore;

namespace {

const backend::FakeBackend& toronto() {
  static const backend::FakeBackend dev = backend::make_toronto();
  return dev;
}

/// Fresh per-test store path under gtest's temp dir.
std::string store_path(const std::string& name) {
  const std::string path = ::testing::TempDir() + "hgp_store_" + name + ".bin";
  std::remove(path.c_str());
  return path;
}

/// A hybrid-layer-style program: cacheable gate blocks (SX, CX, RZZ) plus a
/// trainable pulse-mixer block, so a store round trip covers both kinds.
Program hybrid_program(double amp) {
  pulse::Schedule s("mixer");
  const pulse::Channel d = pulse::Channel::drive(0);
  s.append(pulse::ShiftPhase{0.3, d});
  s.append(pulse::Play{pulse::PulseShape::gaussian(64, amp, 16.0), d});
  s.append(pulse::ShiftPhase{-0.3, d});
  Program prog;
  prog.ops.push_back(ExecOp::from_gate(qc::Op{qc::GateKind::SX, {0}, {}}));
  prog.ops.push_back(ExecOp::from_gate(qc::Op{qc::GateKind::CX, {0, 1}, {}}));
  prog.ops.push_back(
      ExecOp::from_gate(qc::Op{qc::GateKind::RZZ, {0, 1}, {qc::Param::constant(0.7)}}));
  prog.ops.push_back(ExecOp::from_pulse({0}, s));
  prog.measure_qubits = {0, 1};
  return prog;
}

/// Synthetic block with exactly representable entries (value equality in
/// round-trip checks is then a bit-pattern statement).
CompiledBlock make_block(double seed, std::size_t dim) {
  CompiledBlock b;
  b.unitary = la::CMat(dim, dim);
  for (std::size_t r = 0; r < dim; ++r)
    for (std::size_t c = 0; c < dim; ++c)
      b.unitary(r, c) = la::cxd{seed + 0.25 * static_cast<double>(r),
                                -0.5 * static_cast<double>(c)};
  b.qubits = {1, 3};
  b.duration_dt = 176;
  b.drive_plays = 2;
  b.cr_halves = 1;
  b.virtual_only = false;
  b.explicit_idle = (dim == 2);
  return b;
}

void expect_block_eq(const CompiledBlock& a, const CompiledBlock& b) {
  EXPECT_EQ(a.qubits, b.qubits);
  EXPECT_EQ(a.duration_dt, b.duration_dt);
  EXPECT_EQ(a.drive_plays, b.drive_plays);
  EXPECT_EQ(a.cr_halves, b.cr_halves);
  EXPECT_EQ(a.virtual_only, b.virtual_only);
  EXPECT_EQ(a.explicit_idle, b.explicit_idle);
  ASSERT_EQ(a.unitary.rows(), b.unitary.rows());
  ASSERT_EQ(a.unitary.cols(), b.unitary.cols());
  // Bit-exact round trip, not approximate: the cross-process bit-identical
  // guarantee needs the very same IEEE-754 patterns back.
  EXPECT_EQ(a.unitary.data(), b.unitary.data());
}

std::string read_file(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  return std::string(std::istreambuf_iterator<char>(in), {});
}

void write_file(const std::string& path, const std::string& bytes) {
  std::ofstream out(path, std::ios::binary | std::ios::trunc);
  out.write(bytes.data(), static_cast<std::streamsize>(bytes.size()));
}

/// One record frame of a store file: where it starts and ends, and its key.
struct Frame {
  std::size_t begin = 0;
  std::size_t end = 0;
  std::string key;
};

/// Walk an intact store file's frames (16-byte header, then records of
/// u32 body length | u64 checksum | body, the body opening with a kind u8, a
/// fingerprint u64 and the u32-length-prefixed key) — an independent reader
/// for the fuzz tests' expectations.
std::vector<Frame> frames_of(const std::string& bytes) {
  auto u32_at = [&](std::size_t off) {
    std::uint32_t v = 0;
    std::memcpy(&v, bytes.data() + off, sizeof v);
    return v;
  };
  std::vector<Frame> frames;
  for (std::size_t off = 16; off < bytes.size();) {
    Frame f;
    f.begin = off;
    f.end = off + 12 + u32_at(off);
    const std::size_t key_at = off + 12 + 1 + 8;
    f.key = bytes.substr(key_at + 4, u32_at(key_at));
    frames.push_back(f);
    off = f.end;
  }
  return frames;
}

/// A three-record store (two gate blocks of different widths, one pulse
/// block) for the truncation and byte-flip fuzz tests.
std::map<std::string, CompiledBlock> fuzz_store(const std::string& path) {
  const std::map<std::string, CompiledBlock> blocks = {
      {"a", make_block(1.0, 2)}, {"b", make_block(2.0, 4)}, {"c", make_block(3.0, 2)}};
  BlockCache cache(64);
  for (const auto& [key, block] : blocks)
    cache.insert(key, block, key == "c" ? BlockKind::Pulse : BlockKind::Gate);
  EXPECT_EQ(cache.save(path, 5u), 3u);
  return blocks;
}

core::RunConfig tiny_config() {
  core::RunConfig cfg;
  cfg.shots = 64;
  cfg.max_evaluations = 6;
  cfg.executor_threads = 1;
  return cfg;
}

}  // namespace

TEST(BlockStore, SaveLoadRoundTripIsBitExact) {
  const std::string path = store_path("roundtrip");
  BlockCache cache(64);
  cache.insert("gate/a", make_block(0.125, 4), BlockKind::Gate);
  cache.insert("pulse/b", make_block(-2.0, 2), BlockKind::Pulse);
  EXPECT_EQ(cache.save(path, 0xABCDu), 2u);

  BlockCache loaded(64);
  const BlockCache::StoreReport report = loaded.load(path, 0xABCDu);
  EXPECT_TRUE(report.header_ok);
  EXPECT_TRUE(report.fingerprint_ok);
  EXPECT_EQ(report.loaded, 2u);
  EXPECT_EQ(report.skipped, 0u);

  const auto a = loaded.find("gate/a", BlockKind::Gate);
  const auto b = loaded.find("pulse/b", BlockKind::Pulse);
  ASSERT_NE(a, nullptr);
  ASSERT_NE(b, nullptr);
  expect_block_eq(*a, make_block(0.125, 4));
  expect_block_eq(*b, make_block(-2.0, 2));
}

TEST(BlockStore, FingerprintMismatchLoadsNothing) {
  const std::string path = store_path("fingerprint");
  BlockCache cache(64);
  cache.insert("k", make_block(1.0, 2));
  cache.save(path, 0x1111u);

  BlockCache other(64);
  const BlockCache::StoreReport report = other.load(path, 0x2222u);
  EXPECT_TRUE(report.header_ok);
  EXPECT_FALSE(report.fingerprint_ok);
  EXPECT_EQ(report.loaded, 0u);
  EXPECT_EQ(other.stats().size, 0u);
}

TEST(BlockStore, WrongVersionOrMagicLoadsNothing) {
  const std::string path = store_path("version");
  BlockCache cache(64);
  cache.insert("k", make_block(1.0, 2));
  cache.save(path, 7u);

  std::string bytes = read_file(path);
  ASSERT_GT(bytes.size(), 16u);
  bytes[4] ^= 0x01;  // bump the format version field
  write_file(path, bytes);
  BlockCache v(64);
  const BlockCache::StoreReport version_report = v.load(path, 7u);
  EXPECT_FALSE(version_report.header_ok);
  EXPECT_EQ(version_report.loaded, 0u);

  bytes[4] ^= 0x01;
  bytes[0] ^= 0xFF;  // now corrupt the magic instead
  write_file(path, bytes);
  BlockCache m(64);
  EXPECT_FALSE(m.load(path, 7u).header_ok);
  EXPECT_EQ(m.stats().size, 0u);
}

TEST(BlockStore, TruncatedFileLoadsValidPrefixOnly) {
  const std::string path = store_path("truncated");
  BlockCache cache(64);
  cache.insert("a", make_block(1.0, 2));
  cache.insert("b", make_block(2.0, 2));
  cache.insert("c", make_block(3.0, 2));
  cache.save(path, 5u);
  const std::string full = read_file(path);

  // Every cut length must load a prefix without crashing, never more than
  // the records fully present, and the whole file loads all three.
  for (const double fraction : {0.1, 0.4, 0.7, 0.95}) {
    const std::size_t cut = static_cast<std::size_t>(full.size() * fraction);
    write_file(path, full.substr(0, cut));
    BlockCache partial(64);
    const BlockCache::StoreReport report = partial.load(path, 5u);
    EXPECT_LE(report.loaded, 3u);
    EXPECT_EQ(report.loaded, partial.stats().size);
  }
  write_file(path, full);
  BlockCache whole(64);
  EXPECT_EQ(whole.load(path, 5u).loaded, 3u);
}

TEST(BlockStore, CorruptedRecordIsSkippedOthersLoad) {
  const std::string path = store_path("corrupt");
  BlockCache cache(64);
  cache.insert("a", make_block(1.0, 2));
  cache.insert("b", make_block(2.0, 2));
  cache.insert("c", make_block(3.0, 2));
  cache.save(path, 5u);

  std::string bytes = read_file(path);
  bytes[bytes.size() / 2] ^= 0xFF;  // bit rot inside the middle record
  write_file(path, bytes);

  BlockCache loaded(64);
  const BlockCache::StoreReport report = loaded.load(path, 5u);
  EXPECT_EQ(report.loaded + report.skipped, 3u);
  EXPECT_GE(report.skipped, 1u);
  EXPECT_LE(report.skipped, 2u);  // framing survives a body flip
  EXPECT_EQ(loaded.stats().size, report.loaded);
}

TEST(BlockStore, MissingFileDegradesToCold) {
  BlockCache cache(64);
  const BlockCache::StoreReport report =
      cache.load(store_path("missing"), 1u);
  EXPECT_FALSE(report.header_ok);
  EXPECT_EQ(report.loaded, 0u);
}

TEST(BlockStore, ExecutorWarmStartCompilesZeroBlocks) {
  // "Process" 1: cold-compile a hybrid layer with write-through persistence.
  const std::string path = store_path("warmstart");
  const Program prog = hybrid_program(0.2);
  {
    ExecutorOptions opts;
    opts.block_store_path = path;
    opts.num_threads = 1;
    Executor writer(toronto(), opts);
    Rng rng(3);
    writer.run(prog, 32, rng);
    EXPECT_GT(writer.cache_stats().misses, 0u);
    EXPECT_EQ(writer.cache_stats().store_hits, 0u);
  }

  // "Process" 2: a fresh cache warm-starts from the store — zero pulse (and
  // gate) compilations for the same calibration, counts bit-identical.
  ExecutorOptions opts;
  opts.block_store_path = path;
  opts.num_threads = 1;
  Executor warm(toronto(), opts);
  Rng warm_rng(3);
  const sim::Counts warm_counts = warm.run(prog, 512, warm_rng);
  const BlockCache::Stats stats = warm.cache_stats();
  EXPECT_EQ(stats.misses, 0u);  // nothing compiled in-process
  EXPECT_EQ(stats.pulse_misses, 0u);
  EXPECT_GT(stats.store_loaded, 0u);
  EXPECT_EQ(stats.store_hits, stats.hits);
  EXPECT_GE(stats.store_hit_rate(), 0.95);

  ExecutorOptions cold_opts;
  cold_opts.num_threads = 1;
  Executor cold(toronto(), cold_opts);
  Rng cold_rng(3);
  EXPECT_EQ(warm_counts, cold.run(prog, 512, cold_rng));
}

TEST(BlockStore, RecalibratedBackendTakesOverStoreNonDestructively) {
  const std::string path = store_path("recal");
  {
    ExecutorOptions opts;
    opts.block_store_path = path;
    opts.num_threads = 1;
    Executor writer(toronto(), opts);
    Rng rng(3);
    writer.run(hybrid_program(0.2), 32, rng);
  }
  BlockCache probe(256);
  const std::size_t written = probe.load(path, toronto().fingerprint()).loaded;
  ASSERT_GT(written, 0u);

  // A drifted device has a different fingerprint: it must not replay the
  // old blocks, and its write-through takes the header over while keeping
  // the existing records on disk (record ownership is per key, so each
  // calibration keeps loading exactly its own blocks).
  backend::FakeBackend drifted = backend::make_toronto();
  drifted.mutable_noise_model().qubits[0].freq_drift_ghz += 1e-4;
  ASSERT_NE(drifted.fingerprint(), toronto().fingerprint());
  ExecutorOptions opts;
  opts.block_store_path = path;
  opts.num_threads = 1;
  Executor ex(drifted, opts);
  Rng rng(3);
  ex.run(hybrid_program(0.2), 32, rng);
  const BlockCache::Stats stats = ex.cache_stats();
  EXPECT_EQ(stats.store_loaded, 0u);  // nothing of the old device loaded
  EXPECT_GT(stats.misses, 0u);        // it compiled cold

  // The store header now belongs to the drifted calibration, but record
  // ownership is per key: the drifted device loads its own blocks, and the
  // original calibration still loads every block it wrote — the takeover
  // destroyed nothing and hid nothing.
  BlockCache drifted_cache(256);
  const BlockCache::StoreReport drifted_report =
      drifted_cache.load(path, drifted.fingerprint());
  EXPECT_TRUE(drifted_report.fingerprint_ok);
  // Ownership is per record: the drifted device loads exactly its own
  // blocks; the old device's records are skipped, not merged.
  EXPECT_GT(drifted_report.loaded, 0u);
  EXPECT_GE(drifted_report.skipped, written);
  BlockCache old_cache(256);
  const BlockCache::StoreReport old_report =
      old_cache.load(path, toronto().fingerprint());
  EXPECT_FALSE(old_report.fingerprint_ok);  // header no longer ours...
  EXPECT_EQ(old_report.loaded, written);    // ...but our records still load
}

TEST(BlockStore, EvictedThenRecompiledKeysDoNotGrowTheFile) {
  // Write-through dedups on the key, not on cache residency: a block the
  // LRU evicted and a later compile re-inserted must not append a duplicate
  // record per round trip.
  const std::string path = store_path("dedup");
  BlockCache cache(1);  // capacity 1: every other insert evicts
  cache.attach_store(path, 7u);
  cache.insert("a", make_block(1.0, 2));
  cache.insert("b", make_block(2.0, 2));  // evicts a
  const std::size_t size_after_two = read_file(path).size();
  cache.insert("a", make_block(1.0, 2));  // recompiled after eviction
  cache.insert("b", make_block(2.0, 2));
  EXPECT_EQ(read_file(path).size(), size_after_two);

  BlockCache loaded(64);
  const BlockCache::StoreReport report = loaded.load(path, 7u);
  EXPECT_EQ(report.loaded, 2u);
  EXPECT_EQ(report.skipped, 0u);
}

TEST(BlockStore, TornTailIsTruncatedSoLaterAppendsStayReadable) {
  // A writer killed mid-append leaves a half record at the end of the file.
  // The next attach must truncate it away — otherwise every record appended
  // after the tear would be framed behind garbage and unreadable.
  const std::string path = store_path("torntail");
  {
    ExecutorOptions opts;
    opts.block_store_path = path;
    opts.num_threads = 1;
    Executor writer(toronto(), opts);
    Rng rng(3);
    writer.run(hybrid_program(0.2), 32, rng);
  }
  BlockCache probe(256);
  const std::size_t written = probe.load(path, toronto().fingerprint()).loaded;
  std::string bytes = read_file(path);
  write_file(path, bytes + std::string(7, '\x7f'));  // torn half-record

  // Second process: warm-starts from the intact prefix and appends a block
  // the first run never compiled (a new mixer amplitude).
  ExecutorOptions opts;
  opts.block_store_path = path;
  opts.num_threads = 1;
  Executor ex(toronto(), opts);
  Rng rng(3);
  ex.run(hybrid_program(0.9), 32, rng);
  EXPECT_EQ(ex.cache_stats().store_loaded, written);

  // Third process: every record — old and post-tear — loads cleanly.
  BlockCache final_cache(256);
  const BlockCache::StoreReport report = final_cache.load(path, toronto().fingerprint());
  EXPECT_EQ(report.skipped, 0u);
  EXPECT_GT(report.loaded, written);
}

TEST(BlockStore, EveryTruncationLoadsTheIntactPrefix) {
  const std::string path = store_path("fuzz_truncate");
  fuzz_store(path);
  const std::string full = read_file(path);
  const std::vector<Frame> frames = frames_of(full);
  ASSERT_EQ(frames.size(), 3u);
  ASSERT_EQ(frames.back().end, full.size());

  for (std::size_t len = 0; len <= full.size(); ++len) {
    SCOPED_TRACE(len);
    write_file(path, full.substr(0, len));
    std::size_t delivered = 0;
    BlockStore::LoadReport report;
    EXPECT_NO_THROW(report = BlockStore::load_file(
                        path, 5u, [&](const std::string&, BlockKind, std::uint64_t,
                                      CompiledBlock) { ++delivered; }));
    EXPECT_EQ(delivered, report.loaded);
    if (len < 16) {
      // No complete header: a cold start.
      EXPECT_FALSE(report.header_ok);
      EXPECT_EQ(report.loaded + report.skipped, 0u);
      EXPECT_EQ(report.valid_bytes, 0u);
      continue;
    }
    EXPECT_TRUE(report.header_ok);
    std::size_t intact = 0;
    std::size_t intact_end = 16;
    for (const Frame& f : frames)
      if (f.end <= len) {
        ++intact;
        intact_end = f.end;
      }
    // Every fully present record loads; a cut inside the next one is one
    // skipped (torn) record, and appenders resume after the last intact one.
    EXPECT_EQ(report.loaded, intact);
    EXPECT_EQ(report.skipped, len == intact_end ? 0u : 1u);
    EXPECT_EQ(report.valid_bytes, intact_end);
  }
}

TEST(BlockStore, EveryByteFlipLoadsOrSkipsButNeverThrows) {
  const std::string path = store_path("fuzz_flip");
  const std::map<std::string, CompiledBlock> blocks = fuzz_store(path);
  const std::string full = read_file(path);
  const std::vector<Frame> frames = frames_of(full);
  ASSERT_EQ(frames.size(), 3u);

  for (std::size_t i = 0; i < full.size(); ++i) {
    SCOPED_TRACE(i);
    std::string corrupt = full;
    corrupt[i] = char(corrupt[i] ^ 0xFF);
    write_file(path, corrupt);
    std::vector<std::pair<std::string, CompiledBlock>> got;
    BlockStore::LoadReport report;
    EXPECT_NO_THROW(report = BlockStore::load_file(
                        path, 5u, [&](const std::string& key, BlockKind, std::uint64_t,
                                      CompiledBlock block) {
                          got.emplace_back(key, std::move(block));
                        }));
    ASSERT_EQ(got.size(), report.loaded);
    EXPECT_LE(report.valid_bytes, corrupt.size());
    // Whatever loads passed its checksum: one of the originals, bit for bit.
    for (const auto& [key, block] : got) {
      ASSERT_EQ(blocks.count(key), 1u) << key;
      expect_block_eq(block, blocks.at(key));
    }
    if (i < 8) {
      // Magic or version: the whole file is foreign, a cold start.
      EXPECT_FALSE(report.header_ok);
      EXPECT_EQ(report.loaded, 0u);
      continue;
    }
    EXPECT_TRUE(report.header_ok);
    if (i < 16) {
      // The header fingerprint is advisory; records carry their own.
      EXPECT_FALSE(report.fingerprint_ok);
      EXPECT_EQ(report.loaded, 3u);
      continue;
    }
    // The flipped record never loads; every record before it does.
    for (std::size_t r = 0; r < frames.size(); ++r) {
      const bool hit = frames[r].begin <= i && i < frames[r].end;
      const bool loaded = std::any_of(got.begin(), got.end(),
                                      [&](const auto& kb) { return kb.first == frames[r].key; });
      if (hit) EXPECT_FALSE(loaded) << frames[r].key;
      if (frames[r].end <= i) EXPECT_TRUE(loaded) << frames[r].key;
    }
    EXPECT_GE(report.skipped, 1u);
  }
}

TEST(BlockStore, GarbageFileIsResetNotFatal) {
  const std::string path = store_path("garbage");
  write_file(path, "this is not a block store at all");
  ExecutorOptions opts;
  opts.block_store_path = path;
  opts.num_threads = 1;
  Executor ex(toronto(), opts);
  Rng rng(3);
  ex.run(hybrid_program(0.2), 32, rng);  // compiles cold, no crash

  BlockCache loaded(64);
  const BlockCache::StoreReport report = loaded.load(path, toronto().fingerprint());
  EXPECT_TRUE(report.header_ok);  // write-through rewrote a valid store
  EXPECT_GT(report.loaded, 0u);
}

TEST(BlockStore, StatsSeparateDiskWarmedFromInProcessHits) {
  const std::string path = store_path("stats");
  const Program prog = hybrid_program(0.4);
  {
    ExecutorOptions opts;
    opts.block_store_path = path;
    opts.num_threads = 1;
    Executor writer(toronto(), opts);
    Rng rng(3);
    writer.run(hybrid_program(0.3), 32, rng);  // compiles the template
    writer.run(prog, 32, rng);                 // re-lowers the pulse slot
    // Write-through process: repeated blocks hit in memory, not from disk.
    writer.run(prog, 32, rng);
    const BlockCache::Stats s = writer.cache_stats();
    EXPECT_EQ(s.hits, 1u);
    EXPECT_EQ(s.store_hits, 0u);
    EXPECT_EQ(s.store_misses, s.misses);
  }
  // No store anywhere: the counters stay zero.
  ExecutorOptions plain;
  plain.num_threads = 1;
  Executor cold(toronto(), plain);
  Rng rng(3);
  cold.run(prog, 32, rng);
  cold.run(prog, 32, rng);
  const BlockCache::Stats s = cold.cache_stats();
  EXPECT_EQ(s.store_hits, 0u);
  EXPECT_EQ(s.store_misses, 0u);
  EXPECT_EQ(s.store_loaded, 0u);
}

TEST(BlockStore, ConcurrentSweepWriteThroughProducesLoadableStore) {
  // Several workers write through one attached store while training
  // concurrently; the resulting file must be a valid store that warm-starts
  // a later sweep to bit-identical results.
  const std::string path = store_path("sweep");
  const graph::Instance inst = graph::paper_task1();
  std::vector<serve::JobRequest> jobs;
  for (const char* optimizer : {"cobyla", "spsa", "neldermead"}) {
    serve::JobRequest request{{std::string("job/") + optimizer, inst, &toronto(),
                               core::ModelKind::Hybrid, tiny_config()}};
    request.run.config.optimizer = optimizer;
    jobs.push_back(std::move(request));
  }

  serve::JobService::Options opts;
  opts.num_workers = 4;
  opts.block_store_path = path;
  std::vector<serve::JobOutcome> first;
  {
    serve::JobService svc(opts);
    first = svc.run_all(jobs);
    EXPECT_EQ(svc.service().block_store_path(), path);
    EXPECT_GT(svc.cache_stats().misses, 0u);
  }

  // Second "process": same sweep, fresh service, warm from disk.
  serve::JobService warm_svc(opts);
  const std::vector<serve::JobOutcome> second = warm_svc.run_all(jobs);
  const BlockCache::Stats stats = warm_svc.cache_stats();
  EXPECT_GT(stats.store_loaded, 0u);
  EXPECT_GT(stats.store_hits, 0u);
  EXPECT_GE(stats.store_hit_rate(), 0.95);
  ASSERT_EQ(first.size(), second.size());
  for (std::size_t i = 0; i < first.size(); ++i) {
    ASSERT_EQ(first[i].state, serve::JobState::Completed);
    ASSERT_EQ(second[i].state, serve::JobState::Completed);
    EXPECT_EQ(first[i].result.ar, second[i].result.ar);
    EXPECT_EQ(first[i].result.final_cost, second[i].result.final_cost);
    EXPECT_EQ(first[i].result.optimizer.x, second[i].result.optimizer.x);
    EXPECT_EQ(first[i].result.optimizer.history, second[i].result.optimizer.history);
  }
}

TEST(BlockStore, BlocksCompiledBeforeAttachArePersistedOnAttach) {
  // A shared cache can hold blocks compiled before any store was attached
  // (another tenant's run started first, without persistence). Attaching
  // replays that backlog into the file, so nothing already paid for is
  // missing from the next process's warm start.
  const std::string path = store_path("backlog");
  BlockCache cache(64);
  cache.insert("early", make_block(1.0, 2));  // compiled pre-attach
  cache.attach_store(path, 7u);
  BlockCache loaded(64);
  EXPECT_EQ(loaded.load(path, 7u).loaded, 1u);
  EXPECT_NE(loaded.find("early"), nullptr);
}

TEST(BlockStore, MultiBackendSharedCachePersistsEachCalibrationsBlocks) {
  // Two backends share one cache and one store (a mixed sweep). Records are
  // stamped with the fingerprint of the backend that compiled them — not
  // whoever attached first — so each calibration later warm-starts with
  // exactly its own blocks, deterministically.
  const std::string path = store_path("multibackend");
  backend::FakeBackend drifted = backend::make_toronto();
  drifted.mutable_noise_model().qubits[0].freq_drift_ghz += 1e-4;
  {
    auto cache = std::make_shared<BlockCache>(512);
    ExecutorOptions opts;
    opts.block_cache = cache;
    opts.block_store_path = path;
    opts.num_threads = 1;
    Executor a(toronto(), opts);  // attaches; header carries toronto
    Executor b(drifted, opts);    // re-attach is a no-op
    Rng ra(3), rb(3);
    a.run(hybrid_program(0.2), 32, ra);
    b.run(hybrid_program(0.2), 32, rb);
  }
  // Fresh "processes": each backend compiles nothing on its warm start.
  for (const backend::FakeBackend* dev :
       {&toronto(), static_cast<const backend::FakeBackend*>(&drifted)}) {
    ExecutorOptions opts;
    opts.block_store_path = path;
    opts.num_threads = 1;
    Executor warm(*dev, opts);
    Rng rng(3);
    warm.run(hybrid_program(0.2), 32, rng);
    EXPECT_EQ(warm.cache_stats().misses, 0u);
    EXPECT_GT(warm.cache_stats().store_loaded, 0u);
  }
}

TEST(BlockStore, StaleAttacherDoesNotTruncateFreshAppends) {
  // Attacher A truncates a torn tail and appends record X. Attacher B, whose
  // load pass ran before A's append (stale valid_bytes), must re-validate
  // the tail and keep X instead of chopping the file back to its own offset.
  const std::string path = store_path("staletrunc");
  const std::uint64_t fp = 9u;
  BlockCache writer(64);
  writer.attach_store(path, fp);
  writer.insert("a", make_block(1.0, 2));
  write_file(path, read_file(path) + std::string(5, '\x55'));  // torn tail

  const BlockStore::LoadReport before =
      BlockStore::load_file(path, fp, [](const std::string&, BlockKind,
                                         std::uint64_t, core::CompiledBlock) {});
  // A: truncates the tear, appends X.
  BlockStore a(path, fp, BlockStore::Mode::Append, before.valid_bytes);
  a.append("x", BlockKind::Gate, make_block(4.0, 2));
  // B: constructed with the now-stale offset.
  BlockStore b(path, fp, BlockStore::Mode::Append, before.valid_bytes);

  BlockCache check(64);
  const BlockCache::StoreReport report = check.load(path, fp);
  EXPECT_EQ(report.loaded, 2u);  // "a" and the post-tear "x" both survive
  EXPECT_EQ(report.skipped, 0u);
  EXPECT_NE(check.find("x"), nullptr);
}

TEST(BlockStore, SaveOntoAttachedStorePathIsRejected) {
  // Renaming a snapshot over the live appender's inode would silently send
  // every later write-through append into an unlinked file.
  const std::string path = store_path("saveclash");
  BlockCache cache(64);
  cache.attach_store(path, 3u);
  cache.insert("k", make_block(1.0, 2));
  EXPECT_THROW(cache.save(path, 3u), Error);
  EXPECT_GT(cache.save(store_path("saveclash_other"), 3u), 0u);  // elsewhere ok
}

TEST(BlockStore, AttachIsFirstWinsAndIdempotent) {
  const std::string path = store_path("attach");
  auto cache = std::make_shared<BlockCache>(64);
  const std::uint64_t fp = toronto().fingerprint();
  BlockCache::StoreReport first = cache->attach_store(path, fp);
  EXPECT_TRUE(first.attached);
  EXPECT_EQ(cache->store_path(), path);
  // Re-attach (another executor of the same sweep): cheap no-op.
  BlockCache::StoreReport again = cache->attach_store(path, fp);
  EXPECT_TRUE(again.attached);
  EXPECT_EQ(again.loaded, 0u);
  // A different path does not replace the attached store.
  cache->attach_store(store_path("attach_other"), fp);
  EXPECT_EQ(cache->store_path(), path);
}

TEST(CompiledScheduleSerialization, RoundTripEvolvesBitIdentically) {
  // Mixer-style schedule (frame knobs around a Gaussian) on a real
  // calibrated subsystem — the IR payload a persistent compiled-IR cache
  // would ship between processes.
  pulse::Schedule mixer("mixer");
  const pulse::Channel d0 = pulse::Channel::drive(0);
  mixer.append(pulse::ShiftPhase{0.1, d0});
  mixer.append(pulse::ShiftFrequency{0.01, d0});
  mixer.append(pulse::Play{pulse::PulseShape::gaussian(64, 0.2, 16.0), d0});
  mixer.append(pulse::ShiftFrequency{-0.01, d0});
  mixer.append(pulse::ShiftPhase{-0.1, d0});
  backend::FakeBackend::Subsystem sub = toronto().subsystem({0}, true);
  const pulse::Schedule local = backend::FakeBackend::remap_schedule(mixer, sub.remap);
  const psim::PulseSimulator sim(std::move(sub.system));
  const psim::CompiledSchedule original = sim.compile(local);

  std::string bytes;
  original.serialize(bytes);
  io::Reader in(bytes);
  psim::CompiledSchedule restored;
  ASSERT_TRUE(psim::CompiledSchedule::deserialize(in, restored));
  EXPECT_EQ(in.remaining(), 0u);
  EXPECT_EQ(restored.duration_dt(), original.duration_dt());
  EXPECT_EQ(restored.num_steps(), original.num_steps());

  la::CVec psi0(2, la::cxd{0.0, 0.0});
  psi0[0] = 1.0;
  const la::CVec a = sim.evolve(original, psi0);
  const la::CVec b = sim.evolve(restored, psi0);
  EXPECT_EQ(a, b);  // bit-identical, not approximately equal
  EXPECT_EQ(sim.propagator(original).data(), sim.propagator(restored).data());
}

TEST(CompiledScheduleSerialization, TruncatedPayloadRejected) {
  pulse::Schedule s("p");
  s.append(pulse::Play{pulse::PulseShape::gaussian(32, 0.1, 8.0),
                       pulse::Channel::drive(0)});
  backend::FakeBackend::Subsystem sub = toronto().subsystem({0}, true);
  const psim::PulseSimulator sim(std::move(sub.system));
  std::string bytes;
  sim.compile(backend::FakeBackend::remap_schedule(s, sub.remap)).serialize(bytes);
  for (const std::size_t cut : {std::size_t{0}, std::size_t{3}, bytes.size() / 2,
                                bytes.size() - 1}) {
    io::Reader in(bytes.data(), cut);
    psim::CompiledSchedule out;
    EXPECT_FALSE(psim::CompiledSchedule::deserialize(in, out));
  }
}

TEST(BlockStore, CompactionDropsEvictedRecordsAndRoundTripsResidents) {
  // Append-only write-through never reclaims records the LRU has evicted:
  // across many runs the file accretes dead entries. compact_store() rewrites
  // it down to the cache's residents — which must come back bit-exact — and
  // the file must actually shrink.
  const std::string path = store_path("compact");
  BlockCache cache(2);  // capacity 2: inserts 3..6 evict 1..4
  cache.attach_store(path, 7u);
  for (int i = 0; i < 6; ++i)
    cache.insert("k" + std::to_string(i), make_block(0.5 * i, 2));
  const std::size_t grown = read_file(path).size();
  {
    BlockCache full(64);
    EXPECT_EQ(full.load(path, 7u).loaded, 6u);  // all six records on disk
  }

  EXPECT_EQ(cache.compact_store(), 2u);
  EXPECT_LT(read_file(path).size(), grown);

  BlockCache loaded(64);
  const BlockCache::StoreReport report = loaded.load(path, 7u);
  EXPECT_TRUE(report.header_ok);
  EXPECT_EQ(report.loaded, 2u);
  EXPECT_EQ(report.skipped, 0u);
  for (int i = 4; i < 6; ++i) {
    const auto b = loaded.find("k" + std::to_string(i));
    ASSERT_NE(b, nullptr) << i;
    expect_block_eq(*b, make_block(0.5 * i, 2));
  }
  EXPECT_EQ(loaded.find("k0"), nullptr);

  // The appender stays live on the same inode: post-compaction compiles keep
  // persisting, including re-compiles of keys the compaction dropped.
  cache.insert("k0", make_block(0.0, 2));
  BlockCache again(64);
  EXPECT_EQ(again.load(path, 7u).loaded, 3u);
  ASSERT_NE(again.find("k0"), nullptr);
}

TEST(BlockStore, CompactionKeepsOtherCalibrationsRecords) {
  // Records another backend fingerprint owns cannot be judged live or dead
  // from this cache — compaction must carry them through verbatim.
  const std::string path = store_path("compact_foreign");
  {
    BlockCache old_cal(64);
    old_cal.attach_store(path, 1u);
    old_cal.insert("old_a", make_block(1.0, 2), BlockKind::Gate, 1u);
    old_cal.insert("old_b", make_block(2.0, 4), BlockKind::Pulse, 1u);
  }
  BlockCache new_cal(1);  // capacity 1 so the first new insert gets evicted
  new_cal.attach_store(path, 2u);  // takeover: old records stay on disk
  new_cal.insert("new_a", make_block(3.0, 2), BlockKind::Gate, 2u);
  new_cal.insert("new_b", make_block(4.0, 2), BlockKind::Gate, 2u);
  EXPECT_EQ(new_cal.compact_store(), 3u);  // 2 foreign + 1 resident

  BlockCache as_old(64);
  EXPECT_EQ(as_old.load(path, 1u).loaded, 2u);
  const auto a = as_old.find("old_a", BlockKind::Gate);
  ASSERT_NE(a, nullptr);
  expect_block_eq(*a, make_block(1.0, 2));

  BlockCache as_new(64);
  EXPECT_EQ(as_new.load(path, 2u).loaded, 1u);
  EXPECT_EQ(as_new.find("new_a"), nullptr);  // evicted, hence compacted away
  ASSERT_NE(as_new.find("new_b"), nullptr);
}

TEST(BlockStore, CompactionWithoutStoreIsANoOp) {
  BlockCache cache(8);
  cache.insert("a", make_block(1.0, 2));
  EXPECT_EQ(cache.compact_store(), 0u);
}
