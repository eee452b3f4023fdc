#include "core/checkpoint.hpp"

#include <cstdio>
#include <fstream>
#include <sstream>

#if defined(__unix__) || defined(__APPLE__)
#include <unistd.h>
#endif

#include "common/crc32.hpp"

namespace odin::core {

namespace {

constexpr char kMagic[8] = {'O', 'D', 'I', 'N', 'C', 'K', 'P', 'T'};
/// Frame: magic(8) + version(4) + sequence(8) + payload size(8) + crc(4).
constexpr std::size_t kHeaderSize = 8 + 4 + 8 + 8 + 4;
/// Refuse absurd payloads before allocating (a corrupt size field must not
/// drive a multi-gigabyte read).
constexpr std::uint64_t kMaxPayload = 1ull << 30;
/// Count bound for the tenant-indexed lists.
constexpr std::uint64_t kMaxShortSeq = 1u << 16;

/// Wire layout of the whole payload (common/binary_io.hpp). The
/// fingerprint has no walk of its own: its fields sit among the state they
/// gate, at the offsets the layout gave them when each layer was added.
template <typename S, common::MaybeConst<ServingCheckpoint> C>
void fields(S& s, C& c) {
  auto& fp = c.fingerprint;
  s.field(c.segment);
  s.field(c.next_run);
  s.field(fp.segments);
  s.field(fp.horizon_runs);
  s.field(fp.t_start_s);
  s.field(fp.t_end_s);
  s.seq(fp.tenant_names, kMaxShortSeq);
  s.field(c.result.label);
  s.seq(c.result.tenants, kMaxShortSeq);
  s.field(c.result.programming);
  s.field(c.result.switches);
  s.field(c.result.policy_updates);
  s.field(c.controller);
  s.field(fp.has_faults);
  // The wear fingerprint is listed here, split, rather than by the
  // WearState walk: crossbars_retired sits with the leveling fields below.
  s.field(c.wear.campaigns);
  s.field(c.wear.stuck_cells);
  s.field(c.wear.failed_wordlines);
  s.field(c.wear.failed_bitlines);
  s.field(fp.has_resilience);
  s.field(fp.shed_policy);
  s.field(fp.queue_capacity);
  s.field(c.busy_until_s);
  s.seq(c.pending_runs, common::kMaxSeq);
  s.seq(c.breakers, kMaxShortSeq);
  s.seq(c.fallback_ous, kMaxShortSeq, [](auto& st, auto& ou) {
    st.field(ou.rows);
    st.field(ou.cols);
  });
  s.field(fp.batching_enabled);
  s.field(fp.batch_cap);
  s.field(fp.leveling_enabled);
  s.field(fp.leveling_spare_rows);
  s.field(fp.leveling_wear_budget);
  // wear.crossbars_retired and the controller's wear_deferred_reprograms
  // and retired_seen belong to other structs, but the layout carries them
  // in this wear-leveling block; listing them with their own structs would
  // move their bytes.
  s.field(c.wear.crossbars_retired);
  s.field(c.wear_seg_base_rows_remapped);
  s.field(c.wear_seg_base_crossbars_retired);
  s.field(c.wear_seg_base_writes_leveled);
  s.field(c.controller.wear_deferred_reprograms);
  s.field(c.controller.retired_seen);
  s.field(fp.fleet_shards);
  s.field(fp.fleet_shard_index);
  s.field(fp.has_service_models);
  s.seq(fp.service_models, kMaxShortSeq, [](auto& st, auto& m) {
    st.field(m.noc_extra);
    st.field(m.pipeline_overlap);
  });
  s.field(fp.sojourn_cap);
  s.field(c.has_scenario);
  s.field(c.scenario);
  s.field(c.has_cluster);
  s.field(c.cluster);
}

std::string slot_path(const std::string& base, int slot) {
  return base + (slot == 0 ? ".a" : ".b");
}

/// Frame checksum over sequence + payload size + payload, so a bit flip in
/// the header's mutable fields (not just the payload) is detected too.
std::uint32_t frame_crc(std::uint64_t sequence, const std::string& payload) {
  common::ByteWriter meta;
  meta.u64(sequence);
  meta.u64(payload.size());
  const std::uint32_t seed =
      common::crc32(meta.bytes().data(), meta.bytes().size());
  return common::crc32(payload.data(), payload.size(), seed);
}

/// Header fields of one framed file; nullopt when the frame is invalid.
struct Frame {
  std::uint64_t sequence = 0;
  std::string payload;
};

std::optional<Frame> read_frame(const std::string& path) {
  std::ifstream in(path, std::ios::binary | std::ios::ate);
  if (!in) return std::nullopt;
  // The header may claim any payload size; the buffer is sized only once
  // the file is known to hold that many bytes.
  const std::streamoff file_bytes = in.tellg();
  if (file_bytes < static_cast<std::streamoff>(kHeaderSize) || !in.seekg(0))
    return std::nullopt;
  char header[kHeaderSize];
  if (!in.read(header, static_cast<std::streamsize>(kHeaderSize)))
    return std::nullopt;
  common::ByteReader hr(std::string_view(header, kHeaderSize));
  char magic[8];
  for (char& m : magic) m = static_cast<char>(hr.u8());
  if (std::string_view(magic, 8) != std::string_view(kMagic, 8))
    return std::nullopt;
  // One layout: a frame of any other version is refused, never misparsed.
  if (hr.u32() != kCheckpointVersion) return std::nullopt;
  Frame frame;
  frame.sequence = hr.u64();
  const std::uint64_t size = hr.u64();
  const std::uint32_t crc = hr.u32();
  if (size > kMaxPayload ||
      size > static_cast<std::uint64_t>(file_bytes) - kHeaderSize)
    return std::nullopt;  // torn write: payload shorter than the header says
  frame.payload.resize(size);
  if (!in.read(frame.payload.data(), static_cast<std::streamsize>(size)))
    return std::nullopt;
  if (frame_crc(frame.sequence, frame.payload) != crc)
    return std::nullopt;  // bit rot / partial overwrite
  return frame;
}

bool write_frame(const std::string& path, std::uint64_t sequence,
                 const std::string& payload) {
  const std::string tmp = path + ".tmp";
  {
    std::ofstream out(tmp, std::ios::binary | std::ios::trunc);
    if (!out) return false;
    common::ByteWriter header;
    for (char m : kMagic) header.u8(static_cast<std::uint8_t>(m));
    header.u32(kCheckpointVersion);
    header.u64(sequence);
    header.u64(payload.size());
    header.u32(frame_crc(sequence, payload));
    out.write(header.bytes().data(),
              static_cast<std::streamsize>(header.bytes().size()));
    out.write(payload.data(), static_cast<std::streamsize>(payload.size()));
    out.flush();
    if (!out) return false;
  }
#if defined(__unix__) || defined(__APPLE__)
  // Flush file contents to stable storage before the rename publishes it;
  // a crash between rename and data reaching disk must not produce a slot
  // whose header is durable but whose payload is not (the CRC would catch
  // it, but the previous checkpoint would be lost for nothing).
  if (std::FILE* f = std::fopen(tmp.c_str(), "rb")) {
    fsync(fileno(f));
    std::fclose(f);
  }
#endif
  return std::rename(tmp.c_str(), path.c_str()) == 0;
}

}  // namespace

void encode_checkpoint(const ServingCheckpoint& ckpt,
                       common::ByteWriter& out) {
  fields(out, ckpt);
}

std::optional<ServingCheckpoint> decode_checkpoint(common::ByteReader& in) {
  ServingCheckpoint ckpt;
  fields(in, ckpt);
  // Bytes left over after the walk mean the payload is not this layout.
  if (!in.ok() || !in.exhausted()) return std::nullopt;
  ckpt.result.resumed = true;
  return ckpt;
}

CheckpointWriter::CheckpointWriter(std::string base_path)
    : base_(std::move(base_path)) {
  // Continue the sequence across restarts and aim the first write at the
  // slot that is stale (or invalid) so the newest good checkpoint is never
  // the one being overwritten.
  std::uint64_t seq[2] = {0, 0};
  bool valid[2] = {false, false};
  for (int slot = 0; slot < 2; ++slot)
    if (const auto frame = read_frame(slot_path(base_, slot))) {
      seq[slot] = frame->sequence;
      valid[slot] = true;
    }
  sequence_ = std::max(seq[0], seq[1]);
  if (valid[0] && (!valid[1] || seq[0] > seq[1]))
    next_slot_ = 1;
  else
    next_slot_ = 0;
}

bool CheckpointWriter::write(ServingCheckpoint& ckpt) {
  ckpt.sequence = sequence_ + 1;
  common::ByteWriter payload;
  encode_checkpoint(ckpt, payload);
  if (!write_frame(slot_path(base_, next_slot_), ckpt.sequence,
                   payload.bytes()))
    return false;
  sequence_ = ckpt.sequence;
  next_slot_ = 1 - next_slot_;
  return true;
}

std::optional<ServingCheckpoint> load_checkpoint_file(
    const std::string& path) {
  const auto frame = read_frame(path);
  if (!frame.has_value()) return std::nullopt;
  common::ByteReader reader(frame->payload);
  auto ckpt = decode_checkpoint(reader);
  if (ckpt.has_value()) ckpt->sequence = frame->sequence;
  return ckpt;
}

std::optional<ServingCheckpoint> load_latest_checkpoint(
    const std::string& base_path) {
  std::optional<ServingCheckpoint> best;
  for (int slot = 0; slot < 2; ++slot) {
    auto ckpt = load_checkpoint_file(slot_path(base_path, slot));
    if (ckpt.has_value() &&
        (!best.has_value() || ckpt->sequence > best->sequence))
      best = std::move(ckpt);
  }
  return best;
}

}  // namespace odin::core
