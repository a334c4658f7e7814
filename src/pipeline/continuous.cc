#include "pipeline/continuous.h"

#include <algorithm>
#include <chrono>
#include <cinttypes>
#include <cstdio>
#include <cstring>
#include <filesystem>
#include <limits>
#include <system_error>
#include <utility>

#include "anon/checkpoint.h"
#include "anon/streaming.h"
#include "common/failpoint.h"
#include "common/log.h"
#include "common/telemetry.h"
#include "store/shard_runner.h"
#include "store/window_io.h"

namespace wcop {
namespace pipeline {

namespace {

namespace fs = std::filesystem;

// FNV-1a, same constants as the checkpoint fingerprints — the pipeline
// hashes its dataset through the store index instead of materialized
// trajectories, so it composes WcopOptionsFingerprint with its own walk.
constexpr uint64_t kFnvOffset = 0xcbf29ce484222325ULL;
constexpr uint64_t kFnvPrime = 0x100000001b3ULL;

void HashU64(uint64_t* h, uint64_t v) {
  for (int i = 0; i < 8; ++i) {
    *h ^= (v >> (i * 8)) & 0xffULL;
    *h *= kFnvPrime;
  }
}

void HashI64(uint64_t* h, int64_t v) { HashU64(h, static_cast<uint64_t>(v)); }

void HashDouble(uint64_t* h, double v) {
  uint64_t bits = 0;
  static_assert(sizeof(bits) == sizeof(v), "double must be 64-bit");
  std::memcpy(&bits, &v, sizeof(bits));
  HashU64(h, bits);
}

std::string IndexName(const char* prefix, size_t window, const char* suffix) {
  char buf[64];
  std::snprintf(buf, sizeof(buf), "%s%05llu%s", prefix,
                static_cast<unsigned long long>(window), suffix);
  return buf;
}

std::string WindowStorePath(const std::string& output_dir, size_t window) {
  return output_dir + "/" + IndexName("window_", window, ".wst");
}

std::string ManifestPath(const std::string& output_dir, size_t window) {
  return output_dir + "/" + IndexName("window_", window, ".mfr");
}

std::string WindowInputPath(const std::string& work_dir, size_t window) {
  return work_dir + "/" + IndexName("win_in_", window, ".wst");
}

// carry_NNNNN.wst is the carry-over store *consumed* by window NNNNN
// (i.e. written by window NNNNN-1). carry_00000 never exists.
std::string CarryPath(const std::string& work_dir, size_t window) {
  return work_dir + "/" + IndexName("carry_", window, ".wst");
}

std::string CheckpointDirPath(const std::string& work_dir, size_t window) {
  return work_dir + "/" + IndexName("ckpt_", window, "");
}

Status EnsureDir(const std::string& dir) {
  std::error_code ec;
  fs::create_directories(dir, ec);
  if (ec) {
    return Status::IoError("cannot create directory " + dir + ": " +
                           ec.message());
  }
  return Status::OK();
}

void RemoveQuietly(const std::string& path) {
  std::error_code ec;
  fs::remove_all(path, ec);  // best effort; leftovers are swept next run
}

/// Publishes a valid-but-empty store at `path` (atomic tmp -> rename),
/// for windows whose extraction produced no fragments or whose
/// anonymization suppressed everything.
Status WriteEmptyStore(const std::string& path) {
  WCOP_ASSIGN_OR_RETURN(store::TrajectoryStoreWriter writer,
                        store::TrajectoryStoreWriter::Create(path));
  return writer.Finish();
}

/// True when `status` means "this window cannot be anonymized as given"
/// rather than "the run is broken": the window publishes empty with
/// skipped=1, mirroring the streaming driver's per-window skip semantics.
bool IsWindowSkip(const Status& status) {
  return status.code() == StatusCode::kUnsatisfiable ||
         status.code() == StatusCode::kInvalidArgument;
}

struct WindowOutcome {
  WindowManifest manifest;
  bool window_degraded = false;
};

/// Checks a published window against its manifest: envelope + fingerprint
/// + output store bytes. Returns the manifest when everything matches.
Result<WindowManifest> ValidatePublishedWindow(const std::string& output_dir,
                                               size_t window,
                                               uint64_t fingerprint) {
  WCOP_ASSIGN_OR_RETURN(WindowManifest manifest,
                        ReadWindowManifest(ManifestPath(output_dir, window)));
  if (manifest.config_fingerprint != fingerprint) {
    return Status::FailedPrecondition(
        "window " + std::to_string(window) +
        " was published under a different source or configuration");
  }
  if (manifest.window_index != window) {
    return Status::DataLoss("window manifest " + std::to_string(window) +
                            " records index " +
                            std::to_string(manifest.window_index));
  }
  WCOP_ASSIGN_OR_RETURN(FileDigest output,
                        DigestFile(WindowStorePath(output_dir, window)));
  if (output.crc != manifest.output_crc || output.size != manifest.output_size) {
    return Status::DataLoss("window store " + std::to_string(window) +
                            " does not match its manifest digest");
  }
  return manifest;
}

/// True when the carry store consumed by `window` matches the digest its
/// producer recorded. A zero-record carry (producer spilled nothing) is
/// recorded with the digest of the empty store file, which still exists.
bool CarryChainIntact(const std::string& work_dir, size_t window,
                      const WindowManifest& producer_manifest) {
  Result<FileDigest> carry = DigestFile(CarryPath(work_dir, window));
  if (!carry.ok()) {
    return false;
  }
  return carry->crc == producer_manifest.carry_crc &&
         carry->size == producer_manifest.carry_size;
}

}  // namespace

uint64_t PipelineConfigFingerprint(const store::TrajectoryStoreReader& source,
                                   const ContinuousPipelineOptions& options) {
  uint64_t h = kFnvOffset;
  HashU64(&h, 0x50495045ULL);  // "PIPE" domain separator
  const std::vector<store::StoreEntry>& index = source.index();
  HashU64(&h, index.size());
  for (const store::StoreEntry& entry : index) {
    HashI64(&h, entry.id);
    HashU64(&h, entry.num_points);
    HashI64(&h, entry.k);
    HashDouble(&h, entry.delta);
    HashDouble(&h, entry.min_x);
    HashDouble(&h, entry.min_y);
    HashDouble(&h, entry.max_x);
    HashDouble(&h, entry.max_y);
    HashDouble(&h, entry.t_min);
    HashDouble(&h, entry.t_max);
  }
  HashDouble(&h, options.window_seconds);
  HashU64(&h, options.min_fragment_points);
  // max_windows is deliberately NOT hashed: a capped run is a prefix of the
  // full grid, so raising the cap must resume into the published prefix.
  HashDouble(&h, options.partition.overlap_margin);
  HashU64(&h, options.partition.target_shard_size);
  HashU64(&h, options.partition.max_shard_size);
  HashU64(&h, options.partition.min_shard_size);
  HashU64(&h, options.partition.num_shards);
  HashU64(&h, WcopOptionsFingerprint(options.wcop));
  return h;
}

Result<ContinuousPipelineResult> RunContinuousPipeline(
    const ContinuousPipelineOptions& options) {
  if (options.source_store.empty() || options.output_dir.empty()) {
    return Status::InvalidArgument(
        "continuous pipeline: source_store and output_dir are required");
  }
  const std::string work_dir =
      options.work_dir.empty() ? options.output_dir + "/.work"
                               : options.work_dir;

  WCOP_ASSIGN_OR_RETURN(store::TrajectoryStoreReader source,
                        store::TrajectoryStoreReader::Open(
                            options.source_store));
  if (source.size() == 0) {
    return Status::InvalidArgument("continuous pipeline: source store " +
                                   options.source_store + " is empty");
  }
  WCOP_RETURN_IF_ERROR(EnsureDir(options.output_dir));
  WCOP_RETURN_IF_ERROR(EnsureDir(work_dir));

  // Window grid over the source's full lifetime. The pipeline partitions
  // time as [WindowStart(i), WindowStart(i+1)) — exact at shared
  // boundaries, so a point belongs to exactly one window and a carry merge
  // can never see a duplicate sample.
  double t_min = std::numeric_limits<double>::infinity();
  double t_max = -std::numeric_limits<double>::infinity();
  for (const store::StoreEntry& entry : source.index()) {
    t_min = std::min(t_min, entry.t_min);
    t_max = std::max(t_max, entry.t_max);
  }
  WCOP_ASSIGN_OR_RETURN(const WindowPlan plan,
                        PlanWindows(t_min, t_max, options.window_seconds));
  size_t windows_total = plan.num_windows;
  if (options.max_windows > 0) {
    windows_total = std::min(windows_total, options.max_windows);
  }

  const uint64_t fingerprint = PipelineConfigFingerprint(source, options);

  telemetry::Telemetry* tel = options.wcop.telemetry;
  telemetry::Counter* windows_published = nullptr;
  telemetry::Counter* windows_resumed = nullptr;
  telemetry::Counter* windows_retried = nullptr;
  if (tel != nullptr) {
    windows_published = tel->metrics().GetCounter("pipeline.windows_published");
    windows_resumed = tel->metrics().GetCounter("pipeline.windows_resumed");
    windows_retried = tel->metrics().GetCounter("pipeline.windows_retried");
    tel->metrics().GetGauge("pipeline.windows_total")
        ->Set(static_cast<double>(windows_total));
  }

  ContinuousPipelineResult result;
  result.windows_total = windows_total;

  // ---- Resume scan: adopt the longest valid published prefix. ----------
  size_t first_window = 0;
  {
    const bool has_first_manifest =
        fs::exists(ManifestPath(options.output_dir, 0));
    if (has_first_manifest && !options.resume) {
      return Status::FailedPrecondition(
          "output directory " + options.output_dir +
          " already holds published windows; pass resume to continue them");
    }
    if (options.resume) {
      std::vector<WindowManifest> adopted;
      while (first_window < windows_total) {
        Result<WindowManifest> manifest = ValidatePublishedWindow(
            options.output_dir, first_window, fingerprint);
        if (!manifest.ok()) {
          if (manifest.status().code() == StatusCode::kFailedPrecondition) {
            return manifest.status();  // config mismatch is never recoverable
          }
          log::Info("pipeline: window needs recompute",
                    {{"window", first_window},
                     {"reason", manifest.status().ToString()}});
          break;
        }
        adopted.push_back(*std::move(manifest));
        ++first_window;
      }
      // The next window consumes carry_<first_window>; if its bytes do not
      // match what its producer committed (torn scratch, deleted work dir),
      // step back and recompute the producer — which rewrites the carry
      // deterministically. Producer inputs degrade the same way, so this
      // walks back as far as the damage reaches (worst case: window 0,
      // which consumes no carry at all).
      while (first_window > 0 &&
             first_window < windows_total &&  // nothing left -> no carry need
             !CarryChainIntact(work_dir, first_window,
                               adopted[first_window - 1])) {
        log::Info("pipeline: carry store is stale, stepping back one window",
                  {{"window", first_window}});
        adopted.pop_back();
        --first_window;
      }
      result.resumed_windows = first_window;
      if (windows_resumed != nullptr && first_window > 0) {
        windows_resumed->Add(first_window);
      }
      for (const WindowManifest& m : adopted) {
        result.published_fragments += m.published_fragments;
        result.suppressed_fragments += m.suppressed_delta;
        result.total_clusters += m.clusters;
        result.total_ttd += m.ttd;
        result.degraded = result.degraded || m.degraded;
        result.windows.push_back(m);
      }
    }
  }

  int64_t next_fragment_id =
      first_window == 0 ? 0 : result.windows.back().next_fragment_id;

  // ---- Window loop. ----------------------------------------------------
  for (size_t wi = first_window; wi < windows_total; ++wi) {
    const auto wall_start = std::chrono::steady_clock::now();
    const double window_start = plan.WindowStart(wi);
    const double window_end = plan.WindowStart(wi + 1);

    const std::string input_path = WindowInputPath(work_dir, wi);
    const std::string carry_in =
        wi == 0 ? std::string() : CarryPath(work_dir, wi);
    const std::string carry_out = CarryPath(work_dir, wi + 1);
    const std::string output_path = WindowStorePath(options.output_dir, wi);

    WindowOutcome outcome;
    int attempts = 0;
    auto run_window = [&]() -> Status {
      outcome = WindowOutcome();
      WCOP_FAILPOINT("pipeline.window_start");

      // 1. Extract: writes the window input store and the next carry
      //    store, both atomic. A stale output store from a previous torn
      //    attempt is simply overwritten below.
      store::WindowExtractOptions extract;
      extract.window_start = window_start;
      extract.window_end = window_end;
      extract.min_fragment_points = options.min_fragment_points;
      extract.next_fragment_id = next_fragment_id;
      extract.carry_in_path = carry_in;
      extract.window_out_path = input_path;
      extract.carry_out_path = carry_out;
      WCOP_ASSIGN_OR_RETURN(store::WindowExtraction extraction,
                            store::ExtractWindow(source, extract));
      WCOP_FAILPOINT("pipeline.window_extracted");

      WindowManifest& m = outcome.manifest;
      m.config_fingerprint = fingerprint;
      m.window_index = wi;
      m.window_start = window_start;
      m.window_end = window_end;
      m.input_fragments = extraction.fragments;
      m.carried_in = extraction.carried_in;
      m.carried_out = extraction.carried_out;
      m.suppressed_delta = extraction.suppressed;
      m.next_fragment_id = extraction.next_fragment_id;

      // 2. Anonymize, streaming published fragments straight to the final
      //    window store (its Finish() is the atomic output publish).
      if (extraction.fragments == 0) {
        WCOP_RETURN_IF_ERROR(WriteEmptyStore(output_path));
      } else {
        WCOP_ASSIGN_OR_RETURN(store::TrajectoryStoreReader window_reader,
                              store::TrajectoryStoreReader::Open(input_path));
        store::ShardRunOptions run;
        run.wcop = options.wcop;
        run.partition = options.partition;
        run.verify_shards = options.verify_shards;
        run.shard_parallelism = 1;  // stream_output_store requires it
        run.stream_output_store = output_path;
        if (options.shard_checkpoints) {
          run.checkpoint_dir = CheckpointDirPath(work_dir, wi);
          WCOP_RETURN_IF_ERROR(EnsureDir(run.checkpoint_dir));
        }
        Result<store::ShardedRunResult> sharded =
            store::RunShardedWcopCt(window_reader, run);
        if (!sharded.ok() && IsWindowSkip(sharded.status())) {
          log::Warn("pipeline: window skipped",
                    {{"window", wi},
                     {"reason", sharded.status().ToString()}});
          WCOP_RETURN_IF_ERROR(WriteEmptyStore(output_path));
          m.skipped = true;
          m.suppressed_delta += m.input_fragments;
        } else if (!sharded.ok()) {
          return sharded.status();
        } else if (options.verify_shards && !sharded->all_verified) {
          // A window whose shard audit failed is never published: withdraw
          // the streamed output and fail before the manifest commit point.
          RemoveQuietly(output_path);
          return Status::Internal("window " + std::to_string(wi) +
                                  ": a shard failed its anonymity audit; "
                                  "window not published");
        } else {
          const AnonymizationReport& report = sharded->merged.report;
          m.published_fragments =
              m.input_fragments - report.trashed_trajectories;
          m.suppressed_delta += report.trashed_trajectories;
          m.clusters = report.num_clusters;
          m.ttd = report.ttd;
          m.degraded = report.degraded;
          outcome.window_degraded = report.degraded;
        }
      }
      WCOP_FAILPOINT("pipeline.window_anonymized");

      // 3. Digest the three stores this window commits to. The input
      //    digest pins the extraction, the carry digest lets the *next*
      //    run's resume scan verify the chain, the output digest is the
      //    byte-identity witness.
      WCOP_ASSIGN_OR_RETURN(FileDigest input_digest, DigestFile(input_path));
      m.input_crc = input_digest.crc;
      m.input_size = input_digest.size;
      WCOP_ASSIGN_OR_RETURN(FileDigest carry_digest, DigestFile(carry_out));
      m.carry_crc = carry_digest.crc;
      m.carry_size = carry_digest.size;
      WCOP_ASSIGN_OR_RETURN(FileDigest output_digest, DigestFile(output_path));
      m.output_crc = output_digest.crc;
      m.output_size = output_digest.size;
      WCOP_FAILPOINT("pipeline.window_published");

      // 4. Commit point.
      WCOP_RETURN_IF_ERROR(WriteWindowManifest(
          ManifestPath(options.output_dir, wi), m, options.publish_retry));
      WCOP_FAILPOINT("pipeline.manifest_saved");
      return Status::OK();
    };

    Status window_status;
    if (options.publish_retry != nullptr) {
      window_status = RetryCall(*options.publish_retry, run_window, &attempts);
      if (attempts > 1 && windows_retried != nullptr) {
        windows_retried->Add(static_cast<uint64_t>(attempts - 1));
      }
    } else {
      window_status = run_window();
    }
    WCOP_RETURN_IF_ERROR(window_status);

    // 5. Garbage-collect scratch beyond the two-carry retention horizon:
    //    carry_<wi-1> can only be needed if the resume scan steps back to
    //    recompute window wi-1, which it can no longer do once window wi's
    //    manifest committed with an intact chain. The window input and the
    //    shard checkpoints are re-derivable, so they go immediately.
    if (wi >= 1) {
      RemoveQuietly(CarryPath(work_dir, wi - 1));
    }
    RemoveQuietly(input_path);
    RemoveQuietly(CheckpointDirPath(work_dir, wi));

    const WindowManifest& m = outcome.manifest;
    result.published_fragments += m.published_fragments;
    result.suppressed_fragments += m.suppressed_delta;
    result.total_clusters += m.clusters;
    result.total_ttd += m.ttd;
    result.degraded = result.degraded || outcome.window_degraded;
    result.windows.push_back(m);
    next_fragment_id = m.next_fragment_id;
    if (windows_published != nullptr) {
      windows_published->Add();
    }
    if (tel != nullptr) {
      tel->metrics().GetGauge("pipeline.windows_done")
          ->Set(static_cast<double>(wi + 1));
      tel->metrics().GetGauge("pipeline.carry_records")
          ->Set(static_cast<double>(m.carried_out));
    }
    if (options.progress) {
      PipelineProgress progress;
      progress.windows_done = wi + 1;
      progress.windows_total = windows_total;
      progress.published_fragments = result.published_fragments;
      progress.suppressed_fragments = result.suppressed_fragments;
      progress.carried = m.carried_out;
      progress.last_window_seconds =
          std::chrono::duration<double>(std::chrono::steady_clock::now() -
                                        wall_start)
              .count();
      options.progress(progress);
    }
  }

  // A trailing carry never publishes: its source trajectories ended before
  // accumulating min_fragment_points in the final window. Count it as
  // suppressed so fragment accounting closes over the whole run.
  if (!result.windows.empty()) {
    result.suppressed_fragments += result.windows.back().carried_out;
  }
  return result;
}

}  // namespace pipeline
}  // namespace wcop
