#include <gtest/gtest.h>

#include <cstdio>
#include <filesystem>
#include <fstream>
#include <string>
#include <vector>

#include "driver/checkpoint.hpp"
#include "driver/config.hpp"
#include "driver/driver.hpp"
#include "driver/scenario.hpp"

namespace {

using namespace v6d;

std::string temp_dir(const std::string& name) {
  const auto path = std::filesystem::temp_directory_path() / name;
  std::filesystem::remove_all(path);
  return path.string();
}

/// The smoke-sized neutrino_box: a few adaptive steps, every species on.
driver::SimulationConfig tiny_config() {
  driver::SimulationConfig cfg;
  cfg.scenario = "neutrino_box";
  cfg.box = 100.0;
  cfg.m_nu_ev = 0.4;
  cfg.nx = 4;
  cfg.nu = 6;
  cfg.np = 8;
  cfg.a_final = 0.2;
  cfg.da_max = 0.03;
  cfg.seed = 9;
  cfg.checkpoint_dir.clear();
  return cfg;
}

void expect_bit_identical(const hybrid::HybridSolver& lhs,
                          const hybrid::HybridSolver& rhs) {
  const auto& f1 = lhs.neutrinos();
  const auto& f2 = rhs.neutrinos();
  ASSERT_EQ(f1.dims().nx, f2.dims().nx);
  const auto& d = f1.dims();
  for (int ix = 0; ix < d.nx; ++ix)
    for (int iy = 0; iy < d.ny; ++iy)
      for (int iz = 0; iz < d.nz; ++iz) {
        const float* a = f1.block(ix, iy, iz);
        const float* b = f2.block(ix, iy, iz);
        for (std::size_t v = 0; v < f1.block_size(); ++v)
          ASSERT_EQ(a[v], b[v]) << "f differs at cell (" << ix << "," << iy
                                << "," << iz << ") slot " << v;
      }

  const auto& p1 = lhs.cdm();
  const auto& p2 = rhs.cdm();
  ASSERT_EQ(p1.size(), p2.size());
  for (std::size_t i = 0; i < p1.size(); ++i) {
    ASSERT_EQ(p1.x[i], p2.x[i]) << "x differs at particle " << i;
    ASSERT_EQ(p1.y[i], p2.y[i]) << "y differs at particle " << i;
    ASSERT_EQ(p1.z[i], p2.z[i]) << "z differs at particle " << i;
    ASSERT_EQ(p1.ux[i], p2.ux[i]) << "ux differs at particle " << i;
    ASSERT_EQ(p1.uy[i], p2.uy[i]) << "uy differs at particle " << i;
    ASSERT_EQ(p1.uz[i], p2.uz[i]) << "uz differs at particle " << i;
    ASSERT_EQ(p1.id[i], p2.id[i]) << "id differs at particle " << i;
  }
}

TEST(SimulationConfig, KvRoundTripIsExact) {
  driver::SimulationConfig cfg;
  cfg.a_init = 1.0 / 11.0;  // not representable in short decimal
  cfg.a_final = 2.0 / 3.0;
  cfg.da_max = 0.1;
  cfg.seed = 0xdeadbeefcafeULL;
  cfg.enable_tree = false;
  cfg.checkpoint_dir = "some/dir";
  const auto kv = cfg.to_kv();
  const auto back = driver::SimulationConfig::from_kv(kv);
  EXPECT_EQ(back.a_init, cfg.a_init);
  EXPECT_EQ(back.a_final, cfg.a_final);
  EXPECT_EQ(back.da_max, cfg.da_max);
  EXPECT_EQ(back.seed, cfg.seed);
  EXPECT_EQ(back.enable_tree, cfg.enable_tree);
  EXPECT_EQ(back.checkpoint_dir, cfg.checkpoint_dir);
  EXPECT_EQ(back.scenario, cfg.scenario);
}

TEST(SimulationConfig, PrecedenceCliOverFileOverScenario) {
  const std::string path =
      (std::filesystem::temp_directory_path() / "v6d_test.cfg").string();
  {
    std::ofstream out(path);
    out << "# comment\n"
        << "scenario = cosmic_web\n"
        << "np = 12   ; trailing comment\n"
        << "a_final = 0.3\n";
  }
  Options options;  // as if from the command line
  options.set("np", "10");
  std::string error;
  ASSERT_TRUE(options.load_file(path, &error)) << error;
  const auto cfg = driver::make_config(options);
  EXPECT_EQ(cfg.scenario, "cosmic_web");
  EXPECT_EQ(cfg.np, 10);             // CLI beats file
  EXPECT_DOUBLE_EQ(cfg.a_final, 0.3);  // file beats scenario default
  EXPECT_DOUBLE_EQ(cfg.box, 150.0);  // scenario default survives
  EXPECT_EQ(cfg.m_nu_ev, 0.0);       // scenario default survives
  std::remove(path.c_str());
}

TEST(ScenarioRegistry, AllScenariosBuildAndStep) {
  for (const auto& scenario : driver::scenarios()) {
    Options overrides;
    overrides.set("nx", "4");
    overrides.set("nu", "6");
    overrides.set("checkpoint_dir", "");
    auto cfg = driver::make_config(overrides, scenario.name);
    if (cfg.np > 0) cfg.np = 8;  // keep particle-free scenarios that way
    cfg.a_final = cfg.a_init + 0.02;
    cfg.da_max = 0.02;
    driver::Driver d(cfg);
    const auto result = d.run();
    EXPECT_EQ(result.reason, driver::StopReason::kFinished)
        << scenario.name;
    EXPECT_GE(result.steps, 1) << scenario.name;
    EXPECT_GT(d.solver().total_mass(), 0.0) << scenario.name;
  }
}

TEST(ScenarioRegistry, UnknownScenarioThrows) {
  Options options;
  options.set("scenario", "warp_drive");
  EXPECT_THROW(driver::make_config(options), std::invalid_argument);
}

// The acceptance test: N steps straight through vs. checkpoint-at-k +
// resume must agree bit-for-bit in phase space and particle arrays.
TEST(Driver, CheckpointResumeIsBitIdentical) {
  const std::string dir = temp_dir("v6d_ckpt_determinism");

  auto cfg = tiny_config();
  driver::Driver continuous(cfg);
  const auto full = continuous.run();
  ASSERT_EQ(full.reason, driver::StopReason::kFinished);
  ASSERT_GE(full.total_steps, 4) << "test wants a multi-step run";

  auto cfg2 = tiny_config();
  cfg2.max_steps = 2;
  cfg2.checkpoint_dir = dir;
  driver::Driver interrupted(cfg2);
  const auto head = interrupted.run();
  ASSERT_EQ(head.reason, driver::StopReason::kMaxSteps);
  ASSERT_EQ(head.checkpoint, dir);

  Options overrides;
  overrides.set("max_steps", "0");
  driver::Driver resumed = driver::Driver::resume(dir, overrides);
  EXPECT_EQ(resumed.step_count(), 2);
  const auto tail = resumed.run();
  ASSERT_EQ(tail.reason, driver::StopReason::kFinished);

  EXPECT_EQ(resumed.step_count(), full.total_steps);
  EXPECT_EQ(resumed.scale_factor(), continuous.scale_factor());
  expect_bit_identical(continuous.solver(), resumed.solver());
  std::filesystem::remove_all(dir);
}

// Writing a periodic checkpoint must not perturb the run itself.
TEST(Driver, PeriodicCheckpointDoesNotPerturbRun) {
  const std::string dir = temp_dir("v6d_ckpt_passive");

  auto cfg = tiny_config();
  driver::Driver plain(cfg);
  plain.run();

  auto cfg2 = tiny_config();
  cfg2.checkpoint_every = 1;
  cfg2.checkpoint_dir = dir;
  driver::Driver checkpointing(cfg2);
  checkpointing.run();

  expect_bit_identical(plain.solver(), checkpointing.solver());
  std::filesystem::remove_all(dir);
}

// A 1-rank run is the world of one: its checkpoint holds exactly one
// phase-space shard, rank 0's, and no global payload.
TEST(Driver, OneRankRunWritesOneShard) {
  namespace fs = std::filesystem;
  const std::string dir = temp_dir("v6d_ckpt_one_shard");
  auto cfg = tiny_config();
  cfg.max_steps = 2;
  cfg.checkpoint_dir = dir;
  driver::Driver d(cfg);
  ASSERT_EQ(d.run().reason, driver::StopReason::kMaxSteps);

  std::vector<std::string> payloads;
  for (const auto& entry : fs::directory_iterator(dir)) {
    const auto name = entry.path().filename().string();
    if (name.rfind("phase_space.", 0) == 0) payloads.push_back(name);
  }
  EXPECT_EQ(payloads, std::vector<std::string>{"phase_space.2.r0.bin"});
  driver::Checkpoint meta;
  ASSERT_EQ(driver::read_checkpoint_meta(dir, meta), io::SnapshotStatus::kOk);
  EXPECT_FALSE(meta.has_phase_space);
  EXPECT_EQ(meta.shard_files,
            std::vector<std::string>{"phase_space.2.r0.bin"});
  fs::remove_all(dir);
}

// Checkpoints written before 1-rank runs were sharded carry the whole
// phase space as one global payload (`phase_space_file`, no shard list).
// They must still resume, bit-identically with the uninterrupted run.
TEST(Driver, GlobalPayloadCheckpointResumesBitIdentically) {
  const std::string dir = temp_dir("v6d_ckpt_global_payload");

  auto cfg = tiny_config();
  driver::Driver continuous(cfg);
  const auto full = continuous.run();
  ASSERT_GE(full.total_steps, 4) << "test wants a multi-step run";

  // Stop at step 2 and write that state in the global-payload layout: the
  // fields the 1-rank writer filled, the gathered f as the payload.
  auto cfg2 = tiny_config();
  cfg2.max_steps = 2;
  driver::Driver interrupted(cfg2);
  ASSERT_EQ(interrupted.run().reason, driver::StopReason::kMaxSteps);
  const auto& solver = interrupted.solver();
  driver::Checkpoint meta;
  meta.config = cfg2;
  meta.a = interrupted.scale_factor();
  meta.step = interrupted.step_count();
  meta.rng = Xoshiro256(cfg2.seed).state();
  meta.has_phase_space = true;
  meta.has_particles = true;
  const auto forces = solver.export_step_forces();
  ASSERT_TRUE(forces.fresh);
  meta.has_forces = true;
  ASSERT_EQ(driver::write_checkpoint(dir, meta, &solver.neutrinos(),
                                     &solver.cdm(), &forces),
            io::SnapshotStatus::kOk);
  driver::Checkpoint written;
  ASSERT_EQ(driver::read_checkpoint_meta(dir, written),
            io::SnapshotStatus::kOk);
  ASSERT_FALSE(written.phase_space_file.empty());
  ASSERT_TRUE(written.shard_files.empty());

  Options overrides;
  overrides.set("max_steps", "0");
  driver::Driver resumed = driver::Driver::resume(dir, overrides);
  EXPECT_EQ(resumed.step_count(), 2);
  ASSERT_EQ(resumed.run().reason, driver::StopReason::kFinished);
  EXPECT_EQ(resumed.step_count(), full.total_steps);
  EXPECT_EQ(resumed.scale_factor(), continuous.scale_factor());
  expect_bit_identical(continuous.solver(), resumed.solver());
  std::filesystem::remove_all(dir);
}

/// Every `"comm_bytes":N` value of a telemetry stream, in row order.
std::vector<long long> heartbeat_comm_bytes(const std::string& path) {
  std::vector<long long> values;
  std::ifstream in(path);
  const std::string key = "\"comm_bytes\":";
  for (std::string line; std::getline(in, line);) {
    const auto at = line.find(key);
    if (at != std::string::npos)
      values.push_back(std::stoll(line.substr(at + key.size())));
  }
  return values;
}

// A rank's messages to itself (all of a 1-rank run's slab exchanges) are
// not traffic: the 1-rank heartbeat reports zero bytes, while a 2-rank run
// of the same problem reports the bytes its ranks exchange.
TEST(Driver, HeartbeatCountsOnlyBytesSentToOtherRanks) {
  const std::string dir = temp_dir("v6d_heartbeat_bytes");
  std::filesystem::create_directories(dir);
  auto cfg = tiny_config();
  cfg.nx = 8;
  cfg.max_steps = 2;
  for (const int ranks : {1, 2}) {
    cfg.ranks = ranks;
    cfg.telemetry = dir + "/ranks" + std::to_string(ranks) + ".jsonl";
    driver::Driver d(cfg);
    d.run();
    const auto bytes = heartbeat_comm_bytes(cfg.telemetry);
    ASSERT_EQ(bytes.size(), 2u) << "one heartbeat row per step";
    for (const long long b : bytes) {
      if (ranks == 1)
        EXPECT_EQ(b, 0) << "1-rank run counted self-messages";
      else
        EXPECT_GT(b, 0) << "2-rank run reported no traffic";
    }
  }
  std::filesystem::remove_all(dir);
}

TEST(Driver, ResumeRejectsPhysicsShapeChange) {
  const std::string dir = temp_dir("v6d_ckpt_mismatch");
  auto cfg = tiny_config();
  cfg.max_steps = 1;
  cfg.checkpoint_dir = dir;
  driver::Driver d(cfg);
  ASSERT_EQ(d.run().reason, driver::StopReason::kMaxSteps);

  Options overrides;
  overrides.set("nx", "6");  // incompatible with the stored payload
  EXPECT_THROW(driver::Driver::resume(dir, overrides), std::runtime_error);
  std::filesystem::remove_all(dir);
}

TEST(Driver, ResumeOfMissingCheckpointThrows) {
  EXPECT_THROW(driver::Driver::resume(temp_dir("v6d_no_such_ckpt")),
               std::runtime_error);
}

TEST(Checkpoint, MetaRoundTripsRngAndScaleFactor) {
  const std::string dir = temp_dir("v6d_ckpt_meta");
  std::filesystem::create_directories(dir);

  Xoshiro256 rng(123);
  rng.next_normal();  // populate the Box-Muller cache
  driver::Checkpoint meta;
  meta.config = tiny_config();
  meta.a = 1.0 / 7.0;
  meta.step = 42;
  meta.rng = rng.state();
  ASSERT_EQ(driver::write_checkpoint(dir, meta, nullptr, nullptr, nullptr),
            io::SnapshotStatus::kOk);

  driver::Checkpoint back;
  ASSERT_EQ(driver::read_checkpoint_meta(dir, back),
            io::SnapshotStatus::kOk);
  EXPECT_EQ(back.a, meta.a);
  EXPECT_EQ(back.step, 42);
  EXPECT_EQ(back.config.seed, meta.config.seed);
  EXPECT_EQ(back.config.nx, meta.config.nx);

  // The restored stream must continue exactly where the original does.
  Xoshiro256 restored(1);
  restored.set_state(back.rng);
  for (int i = 0; i < 8; ++i) {
    EXPECT_EQ(restored.next_normal(), rng.next_normal());
    EXPECT_EQ(restored.next_u64(), rng.next_u64());
  }
  std::filesystem::remove_all(dir);
}

TEST(Checkpoint, CorruptMetaReportsDistinctErrors) {
  const std::string dir = temp_dir("v6d_ckpt_corrupt");
  std::filesystem::create_directories(dir);
  const auto meta_path = std::filesystem::path(dir) / "meta";

  driver::Checkpoint meta;
  {
    std::ofstream out(meta_path);
    out << "something-else 1\n";
  }
  EXPECT_EQ(driver::read_checkpoint_meta(dir, meta),
            io::SnapshotStatus::kBadMagic);
  {
    std::ofstream out(meta_path);
    out << "v6d-checkpoint 999\n";
  }
  EXPECT_EQ(driver::read_checkpoint_meta(dir, meta),
            io::SnapshotStatus::kVersionMismatch);
  {
    std::ofstream out(meta_path);
    out << "v6d-checkpoint " << driver::checkpoint_version() << "\n"
        << "a=0.5\n";  // remaining required fields missing
  }
  EXPECT_EQ(driver::read_checkpoint_meta(dir, meta),
            io::SnapshotStatus::kShortRead);
  std::filesystem::remove_all(dir);
}

}  // namespace
