#include "pipeline/manifest.h"

#include <fstream>
#include <sstream>

#include "common/number_codec.h"
#include "common/snapshot.h"

namespace wcop {
namespace pipeline {

namespace {

constexpr std::string_view kMarker = "wcop-window-manifest";

}  // namespace

std::string EncodeWindowManifest(const WindowManifest& m) {
  std::string out;
  codec::AppendWordToken(&out, kMarker);
  codec::AppendUintToken(&out, m.config_fingerprint);
  codec::AppendUintToken(&out, m.window_index);
  codec::AppendDoubleToken(&out, m.window_start);
  codec::AppendDoubleToken(&out, m.window_end);
  codec::AppendUintToken(&out, m.input_fragments);
  codec::AppendUintToken(&out, m.published_fragments);
  codec::AppendUintToken(&out, m.suppressed_delta);
  codec::AppendUintToken(&out, m.carried_in);
  codec::AppendUintToken(&out, m.carried_out);
  codec::AppendUintToken(&out, m.clusters);
  codec::AppendDoubleToken(&out, m.ttd);
  codec::AppendUintToken(&out, m.skipped ? 1 : 0);
  codec::AppendUintToken(&out, m.degraded ? 1 : 0);
  codec::AppendIntToken(&out, m.next_fragment_id);
  codec::AppendUintToken(&out, m.input_crc);
  codec::AppendUintToken(&out, m.input_size);
  codec::AppendUintToken(&out, m.output_crc);
  codec::AppendUintToken(&out, m.output_size);
  codec::AppendUintToken(&out, m.carry_crc);
  codec::AppendUintToken(&out, m.carry_size);
  out.push_back('\n');
  return out;
}

Result<WindowManifest> DecodeWindowManifest(std::string_view payload) {
  codec::TokenScanner scan(payload, "window manifest");
  WCOP_RETURN_IF_ERROR(scan.Expect(kMarker));
  WindowManifest m;
  WCOP_ASSIGN_OR_RETURN(m.config_fingerprint, scan.NextUint());
  WCOP_ASSIGN_OR_RETURN(m.window_index, scan.NextUint());
  WCOP_ASSIGN_OR_RETURN(m.window_start, scan.NextDouble());
  WCOP_ASSIGN_OR_RETURN(m.window_end, scan.NextDouble());
  WCOP_ASSIGN_OR_RETURN(m.input_fragments, scan.NextUint());
  WCOP_ASSIGN_OR_RETURN(m.published_fragments, scan.NextUint());
  WCOP_ASSIGN_OR_RETURN(m.suppressed_delta, scan.NextUint());
  WCOP_ASSIGN_OR_RETURN(m.carried_in, scan.NextUint());
  WCOP_ASSIGN_OR_RETURN(m.carried_out, scan.NextUint());
  WCOP_ASSIGN_OR_RETURN(m.clusters, scan.NextUint());
  WCOP_ASSIGN_OR_RETURN(m.ttd, scan.NextDouble());
  WCOP_ASSIGN_OR_RETURN(uint64_t skipped, scan.NextUint());
  m.skipped = skipped != 0;
  WCOP_ASSIGN_OR_RETURN(uint64_t degraded, scan.NextUint());
  m.degraded = degraded != 0;
  WCOP_ASSIGN_OR_RETURN(m.next_fragment_id, scan.NextInt());
  WCOP_ASSIGN_OR_RETURN(m.input_crc, scan.NextUint());
  WCOP_ASSIGN_OR_RETURN(m.input_size, scan.NextUint());
  WCOP_ASSIGN_OR_RETURN(m.output_crc, scan.NextUint());
  WCOP_ASSIGN_OR_RETURN(m.output_size, scan.NextUint());
  WCOP_ASSIGN_OR_RETURN(m.carry_crc, scan.NextUint());
  WCOP_ASSIGN_OR_RETURN(m.carry_size, scan.NextUint());
  return m;
}

Status WriteWindowManifest(const std::string& path,
                           const WindowManifest& manifest,
                           const RetryPolicy* retry) {
  return WriteSnapshotFile(path, EncodeWindowManifest(manifest),
                           kWindowManifestVersion, retry);
}

Result<WindowManifest> ReadWindowManifest(const std::string& path) {
  WCOP_ASSIGN_OR_RETURN(Snapshot snapshot, ReadSnapshotFile(path));
  if (snapshot.format_version != kWindowManifestVersion) {
    return Status::DataLoss("window manifest " + path +
                            " has unsupported version " +
                            std::to_string(snapshot.format_version));
  }
  return DecodeWindowManifest(snapshot.payload);
}

Result<FileDigest> DigestFile(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  if (!in) {
    return Status::NotFound("no file at " + path);
  }
  std::ostringstream buffer;
  buffer << in.rdbuf();
  if (in.bad()) {
    return Status::IoError("read failed on " + path);
  }
  const std::string bytes = buffer.str();
  FileDigest digest;
  digest.crc = Crc32(bytes);
  digest.size = bytes.size();
  return digest;
}

}  // namespace pipeline
}  // namespace wcop
