// Crash-recovery harness: kill-and-restart at every checkpoint-adjacent
// failpoint site.
//
// The binary doubles as its own crash victim. Invoked as
//
//   crash_recovery_test --child=wcopb <checkpoint_path> <out_path>
//
// it runs one deterministic WCOP-B sweep to completion, audits
// the published output from the outside (effective anonymity >= declared
// k), and writes an exact (%.17g) dump of the result to <out_path>.
//
// The gtest side fork/execs that child three ways per armed site:
//   1. baseline: no checkpointing, no failpoints -> reference dump;
//   2. crash: WCOP_FAILPOINTS=<site>:abort@N -> expect death by SIGABRT,
//      leaving whatever checkpoint state the crash interleaving produced;
//   3. restart: same checkpoint path, no failpoints -> must exit cleanly
//      with a dump byte-identical to the baseline.
// Any torn checkpoint, double-counted round, or drifted double shows up as
// a byte diff. The continuous pipeline has its own harness in
// pipeline_chaos_test.cc.

#include <signal.h>
#include <sys/types.h>
#include <sys/wait.h>
#include <unistd.h>

#include <gtest/gtest.h>

#include <cinttypes>
#include <cstdio>
#include <cstdlib>
#include <filesystem>
#include <fstream>
#include <string>
#include <vector>

#include "anon/effective_anonymity.h"
#include "anon/wcop_b.h"
#include "test_util.h"

namespace wcop {
namespace {

using testing_util::SmallSynthetic;

// ---------------------------------------------------------------------------
// Shared between parent and child.
// ---------------------------------------------------------------------------

// Exact textual dump: %.17g round-trips doubles, so two dumps are equal iff
// the underlying results are bitwise equal.
void DumpDataset(const Dataset& d, std::string* out) {
  char buf[192];
  for (const Trajectory& t : d.trajectories()) {
    std::snprintf(buf, sizeof(buf), "traj %" PRId64 " %" PRId64 " %" PRId64
                  " %d %.17g %zu\n",
                  t.id(), t.object_id(), t.parent_id(), t.requirement().k,
                  t.requirement().delta, t.size());
    out->append(buf);
    for (const Point& p : t.points()) {
      std::snprintf(buf, sizeof(buf), "%.17g %.17g %.17g\n", p.x, p.y, p.t);
      out->append(buf);
    }
  }
}

int WriteDump(const std::string& path, const std::string& dump) {
  std::ofstream out(path, std::ios::binary | std::ios::trunc);
  out.write(dump.data(), static_cast<std::streamsize>(dump.size()));
  out.close();
  if (!out) {
    std::fprintf(stderr, "child: cannot write %s\n", path.c_str());
    return 4;
  }
  return 0;
}

// Outside audit of the published output: every trajectory must enjoy at
// least its declared k co-localized companions at its own delta.
int AuditOrFail(const Dataset& published) {
  const EffectiveAnonymityReport audit = MeasureEffectiveAnonymity(published);
  if (audit.violation_fraction != 0.0) {
    std::fprintf(stderr,
                 "child: effective-anonymity audit failed "
                 "(violation_fraction=%g, min=%zu)\n",
                 audit.violation_fraction, audit.min_anonymity);
    return 3;
  }
  return 0;
}

int RunWcopBChild(const std::string& checkpoint_path,
                  const std::string& out_path) {
  WcopOptions options;
  WcopBOptions b;
  b.step = 1;
  b.max_edit_size = 3;
  b.distort_max = 0.0;  // unreachable -> exactly three editing rounds
  b.checkpoint_path = checkpoint_path;
  Result<WcopBResult> result = RunWcopB(SmallSynthetic(15, 20), options, b);
  if (!result.ok()) {
    std::fprintf(stderr, "child: wcop-b failed: %s\n",
                 result.status().ToString().c_str());
    return 2;
  }
  if (int rc = AuditOrFail(result->anonymization.sanitized); rc != 0) {
    return rc;
  }
  std::string dump;
  char buf[256];
  DumpDataset(result->anonymization.sanitized, &dump);
  for (const WcopBRound& r : result->rounds) {
    std::snprintf(buf, sizeof(buf), "round %zu %.17g %.17g %.17g %zu %zu\n",
                  r.edit_size, r.ttd, r.editing_distortion,
                  r.total_distortion, r.num_clusters, r.trashed);
    dump.append(buf);
  }
  std::snprintf(buf, sizeof(buf),
                "totals final_edit=%zu bound=%d ttd=%.17g\n",
                result->final_edit_size, result->bound_satisfied ? 1 : 0,
                result->anonymization.report.ttd);
  dump.append(buf);
  return WriteDump(out_path, dump);
}

// ---------------------------------------------------------------------------
// Parent-side process harness.
// ---------------------------------------------------------------------------

struct ChildOutcome {
  bool signalled = false;
  int signal = 0;
  int exit_code = -1;
};

ChildOutcome SpawnChild(const std::string& mode,
                        const std::string& checkpoint_path,
                        const std::string& out_path,
                        const std::string& failpoints) {
  const pid_t pid = ::fork();
  if (pid == 0) {
    if (failpoints.empty()) {
      ::unsetenv("WCOP_FAILPOINTS");
    } else {
      ::setenv("WCOP_FAILPOINTS", failpoints.c_str(), 1);
    }
    const std::string child_flag = "--child=" + mode;
    ::execl("/proc/self/exe", "crash_recovery_test", child_flag.c_str(),
            checkpoint_path.c_str(), out_path.c_str(),
            static_cast<char*>(nullptr));
    _exit(127);  // exec failed
  }
  ChildOutcome outcome;
  if (pid < 0) {
    return outcome;  // fork failed -> exit_code stays -1
  }
  int status = 0;
  if (::waitpid(pid, &status, 0) != pid) {
    return outcome;
  }
  if (WIFSIGNALED(status)) {
    outcome.signalled = true;
    outcome.signal = WTERMSIG(status);
  } else if (WIFEXITED(status)) {
    outcome.exit_code = WEXITSTATUS(status);
  }
  return outcome;
}

std::string ReadFileBytes(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  return std::string(std::istreambuf_iterator<char>(in),
                     std::istreambuf_iterator<char>());
}

class CrashRecoveryTest : public ::testing::Test {
 protected:
  void SetUp() override {
    dir_ = std::filesystem::path(::testing::TempDir()) /
           ("crash_recovery_" + std::string(::testing::UnitTest::GetInstance()
                                                ->current_test_info()
                                                ->name()));
    std::filesystem::remove_all(dir_);
    std::filesystem::create_directories(dir_);
  }
  void TearDown() override { std::filesystem::remove_all(dir_); }

  std::string Path(const std::string& name) { return (dir_ / name).string(); }

  // The full kill-and-restart cycle for one driver at every listed crash
  // site: baseline once, then per site crash + restart + byte-compare.
  void RunKillMatrix(const std::string& mode,
                     const std::vector<std::string>& kill_specs) {
    const std::string baseline_out = Path("baseline.dump");
    const ChildOutcome baseline =
        SpawnChild(mode, /*checkpoint_path=*/"", baseline_out, "");
    ASSERT_FALSE(baseline.signalled) << "baseline died: " << baseline.signal;
    ASSERT_EQ(baseline.exit_code, 0);
    const std::string expected = ReadFileBytes(baseline_out);
    ASSERT_FALSE(expected.empty());

    for (size_t i = 0; i < kill_specs.size(); ++i) {
      const std::string& spec = kill_specs[i];
      SCOPED_TRACE(mode + " killed at " + spec);
      const std::string checkpoint = Path("ckpt_" + std::to_string(i));
      const std::string out = Path("out_" + std::to_string(i));

      const ChildOutcome crash = SpawnChild(mode, checkpoint, out, spec);
      ASSERT_TRUE(crash.signalled)
          << "expected SIGABRT, child exited with " << crash.exit_code;
      EXPECT_EQ(crash.signal, SIGABRT);
      EXPECT_TRUE(ReadFileBytes(out).empty())
          << "crashed child must not have published a dump";

      const ChildOutcome restart = SpawnChild(mode, checkpoint, out, "");
      ASSERT_FALSE(restart.signalled)
          << "restart died with signal " << restart.signal;
      ASSERT_EQ(restart.exit_code, 0);
      EXPECT_EQ(ReadFileBytes(out), expected)
          << "resumed output differs from the uninterrupted run";
    }
  }

  std::filesystem::path dir_;
};

// WCOP-B: three editing rounds, checkpoint after each, the third terminal.
TEST_F(CrashRecoveryTest, WcopBSurvivesKillAtEverySite) {
  RunKillMatrix("wcopb", {
                             "snapshot.open_temp:abort@1",
                             "snapshot.fsync:abort@2",
                             "snapshot.rename:abort@1",
                             "wcop_b.checkpoint_saved:abort@1",
                             "wcop_b.checkpoint_saved:abort@2",
                             "wcop_b.checkpoint_saved:abort@3",
                             "wcop_b.round:abort@2",
                             "wcop_b.round:abort@3",
                         });
}

// Crashing twice in a row (restart crashes too, later) still converges.
TEST_F(CrashRecoveryTest, WcopBSurvivesRepeatedCrashes) {
  const std::string baseline_out = Path("baseline.dump");
  ASSERT_EQ(SpawnChild("wcopb", "", baseline_out, "").exit_code, 0);
  const std::string expected = ReadFileBytes(baseline_out);

  const std::string checkpoint = Path("ckpt");
  const std::string out = Path("out");
  const ChildOutcome first =
      SpawnChild("wcopb", checkpoint, out, "snapshot.rename:abort@1");
  ASSERT_TRUE(first.signalled);
  const ChildOutcome second =
      SpawnChild("wcopb", checkpoint, out, "snapshot.rename:abort@2");
  ASSERT_TRUE(second.signalled);

  const ChildOutcome restart = SpawnChild("wcopb", checkpoint, out, "");
  ASSERT_EQ(restart.exit_code, 0);
  EXPECT_EQ(ReadFileBytes(out), expected);
}

}  // namespace
}  // namespace wcop

// Custom main: child mode must not run the test suite.
int main(int argc, char** argv) {
  if (argc == 4 && std::string(argv[1]).rfind("--child=", 0) == 0) {
    const std::string mode = std::string(argv[1]).substr(8);
    if (mode == "wcopb") {
      return wcop::RunWcopBChild(argv[2], argv[3]);
    }
    std::fprintf(stderr, "unknown child mode '%s'\n", mode.c_str());
    return 5;
  }
  ::testing::InitGoogleTest(&argc, argv);
  return RUN_ALL_TESTS();
}
