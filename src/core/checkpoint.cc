// Copyright 2026 TGCRN Reproduction Authors
#include "core/checkpoint.h"

#include <cmath>
#include <cstdint>
#include <cstdio>
#include <cstring>
#include <fstream>
#include <iterator>
#include <limits>
#include <string_view>
#include <utility>
#include <vector>

namespace tgcrn {
namespace core {
namespace {

constexpr char kMagic[8] = {'T', 'G', 'C', 'R', 'N', 'C', 'K', 'P'};
constexpr uint32_t kVersion = 1;

// CRC-32 (IEEE 802.3, reflected polynomial 0xEDB88320).
uint32_t Crc32(std::string_view bytes) {
  uint32_t crc = 0xFFFFFFFFu;
  for (const char c : bytes) {
    crc ^= static_cast<uint8_t>(c);
    for (int k = 0; k < 8; ++k) {
      crc = (crc >> 1) ^ (0xEDB88320u & (0u - (crc & 1u)));
    }
  }
  return ~crc;
}

// Every TGCRNConfig field, in file order. The writer and the reader both
// walk this one list, so they cannot drift apart. An int64 field must be
// >= its minimum (1 unless given), a float finite and >= its minimum (if
// given), a bool 0 or 1, and the time encoder one of its kinds.
template <typename Io, typename Config>
void ConfigFields(Io& io, Config& c) {
  io.Field("num_nodes", c.num_nodes);
  io.Field("input_dim", c.input_dim);
  io.Field("output_dim", c.output_dim);
  io.Field("horizon", c.horizon);
  io.Field("hidden_dim", c.hidden_dim);
  io.Field("num_layers", c.num_layers);
  io.Field("node_embed_dim", c.node_embed_dim);
  io.Field("time_embed_dim", c.time_embed_dim);
  io.Field("steps_per_day", c.steps_per_day);
  // The sparse selection's gate ceiling 1 + alpha assumes alpha >= 0.
  io.Field("alpha", c.alpha, /*min=*/0.0f);
  io.Field("lambda", c.lambda);
  io.Field("use_tagsl", c.use_tagsl);
  io.Field("use_tdl", c.use_tdl);
  io.Field("use_pdf", c.use_pdf);
  io.Field("use_encoder_decoder", c.use_encoder_decoder);
  io.Field("time_encoder", c.time_encoder);
  io.Field("graph_refresh_interval", c.graph_refresh_interval);
  io.Field("graph_topk", c.graph_topk, /*min=*/0);
  io.Field("inter_layer_dropout", c.inter_layer_dropout);
  io.Field("allow_teacher_forcing", c.allow_teacher_forcing);
  io.Field("sampling_seed", c.sampling_seed);
}

// Appends the object bytes of trivially copyable values.
struct Writer {
  template <typename T>
  void Put(const T* values, size_t count) {
    bytes.append(reinterpret_cast<const char*>(values), count * sizeof(T));
  }
  template <typename T>
  void Put(const T& value) {
    Put(&value, 1);
  }
  template <typename T, typename Min = T>
  void Field(const char* /*name*/, const T& value, Min /*min*/ = {}) {
    Put(value);
  }

  std::string bytes;
};

// Bounds-checked cursor over the in-memory file. The first failure is kept
// and turns every later read into a no-op yielding zeros, so a parse runs
// straight through and checks status() where it must stop.
class Reader {
 public:
  explicit Reader(std::string_view bytes) : rest_(bytes) {}

  const Status& status() const { return status_; }
  size_t remaining() const { return rest_.size(); }

  void Read(void* out, size_t size) {
    if (size > rest_.size()) Fail("truncated checkpoint");
    if (!status_.ok()) return;
    std::memcpy(out, rest_.data(), size);
    rest_.remove_prefix(size);
  }
  template <typename T>
  T Get() {
    T value{};
    Read(&value, sizeof(value));
    return value;
  }
  // A uint64 element count, rejected unless `count * element_bytes` still
  // fits in the unread bytes — checked before the caller allocates.
  uint64_t Length(const char* what, size_t element_bytes) {
    const uint64_t count = Get<uint64_t>();
    if (count > rest_.size() / element_bytes) {
      Fail(std::string(what) + " " + std::to_string(count) +
           " exceeds the checkpoint size");
    }
    return status_.ok() ? count : 0;
  }

  void Field(const char* name, int64_t& v, int64_t min = 1) {
    v = Get<int64_t>();
    Check(v >= min, name);
  }
  void Field(const char* name, float& v,
             float min = -std::numeric_limits<float>::infinity()) {
    v = Get<float>();
    Check(std::isfinite(v) && v >= min, name);
  }
  void Field(const char* name, bool& v) {
    const uint8_t byte = Get<uint8_t>();
    v = byte == 1;
    Check(byte <= 1, name);
  }
  void Field(const char* name, TGCRNConfig::TimeEncoderKind& v) {
    using Kind = TGCRNConfig::TimeEncoderKind;
    const int32_t kind = Get<int32_t>();
    v = static_cast<Kind>(kind);
    Check(kind >= 0 && kind <= static_cast<int32_t>(Kind::kContinuous), name);
  }
  void Field(const char* /*name*/, uint64_t& v) { v = Get<uint64_t>(); }

 private:
  void Fail(std::string message) {
    if (status_.ok()) status_ = Status::InvalidArgument(std::move(message));
  }
  void Check(bool in_range, const char* name) {
    if (!in_range) Fail(std::string("config field ") + name + " out of range");
  }

  std::string_view rest_;
  Status status_;
};

}  // namespace

Status SaveCheckpoint(const std::string& path, const TGCRN& model,
                      const data::StandardScaler& scaler) {
  const TGCRNConfig& config = model.config();
  const uint64_t d = scaler.means().size();
  if (d == 0 || static_cast<int64_t>(d) != config.input_dim ||
      static_cast<int64_t>(d) != config.output_dim) {
    return Status::FailedPrecondition(
        "scaler must be fitted over the model's " +
        std::to_string(config.input_dim) + " channels");
  }
  Writer out;
  out.Put(kMagic, sizeof(kMagic));
  out.Put(kVersion);
  ConfigFields(out, config);
  out.Put(d);
  out.Put(scaler.means().data(), d);
  out.Put(scaler.stds().data(), d);
  const std::vector<ag::Variable> params = model.Parameters();
  out.Put(static_cast<uint64_t>(params.size()));
  for (const ag::Variable& p : params) {
    const Tensor& value = p.value();
    out.Put(static_cast<uint64_t>(value.dim()));
    out.Put(value.shape().data(), value.shape().size());
    out.Put(value.data(), static_cast<size_t>(value.numel()));
  }
  out.Put(Crc32(out.bytes));

  std::ofstream file(path, std::ios::binary | std::ios::trunc);
  file.write(out.bytes.data(), static_cast<std::streamsize>(out.bytes.size()));
  if (!file.good()) return Status::IOError("cannot write " + path);
  return Status::OK();
}

Result<Checkpoint> LoadCheckpoint(const std::string& path) {
  std::ifstream file(path, std::ios::binary);
  if (!file) return Status::IOError("cannot open " + path + " for reading");
  const std::string bytes((std::istreambuf_iterator<char>(file)),
                          std::istreambuf_iterator<char>());
  if (file.bad()) return Status::IOError("read failed for " + path);

  if (bytes.size() < sizeof(kMagic) + sizeof(kVersion) + sizeof(uint32_t) ||
      std::memcmp(bytes.data(), kMagic, sizeof(kMagic)) != 0) {
    return Status::InvalidArgument(path + " is not a TGCRN checkpoint");
  }
  const std::string_view body(bytes.data(), bytes.size() - sizeof(uint32_t));
  uint32_t stored_crc = 0;
  std::memcpy(&stored_crc, bytes.data() + body.size(), sizeof(stored_crc));
  if (stored_crc != Crc32(body)) {
    return Status::InvalidArgument(path + " fails its CRC-32 check");
  }

  Reader in(body.substr(sizeof(kMagic)));
  const uint32_t version = in.Get<uint32_t>();
  if (version != kVersion) {
    return Status::InvalidArgument("unsupported checkpoint version " +
                                   std::to_string(version));
  }
  TGCRNConfig config;
  ConfigFields(in, config);
  TGCRN_RETURN_IF_ERROR(in.status());
  // The one cross-field rule the model constructor would CHECK-fail on.
  if (config.time_encoder == TGCRNConfig::TimeEncoderKind::kContinuous &&
      config.time_embed_dim % 2 != 0) {
    return Status::InvalidArgument("odd time_embed_dim for the continuous "
                                   "time encoder");
  }

  const uint64_t d = in.Length("scaler channel count", 2 * sizeof(float));
  TGCRN_RETURN_IF_ERROR(in.status());
  if (static_cast<int64_t>(d) != config.input_dim ||
      static_cast<int64_t>(d) != config.output_dim) {
    return Status::InvalidArgument("scaler channel count " +
                                   std::to_string(d) + " != model width");
  }
  std::vector<float> means(d), stds(d);
  in.Read(means.data(), d * sizeof(float));
  in.Read(stds.data(), d * sizeof(float));
  for (uint64_t c = 0; c < d; ++c) {
    if (!std::isfinite(means[c]) || !std::isfinite(stds[c]) ||
        !(stds[c] > 0.0f)) {
      return Status::InvalidArgument("scaler channel " + std::to_string(c) +
                                     " is not finite with a positive std");
    }
  }
  Checkpoint checkpoint;
  checkpoint.scaler.SetMoments(std::move(means), std::move(stds));

  // Every parameter float is stored, so a config implying more than the
  // unread bytes can hold is refused before the model allocates them.
  const double implied = TGCRN::ParameterCount(config);
  if (implied > static_cast<double>(in.remaining() / sizeof(float))) {
    char message[128];
    std::snprintf(message, sizeof(message),
                  "config's parameter shapes hold %.6g floats, more than "
                  "the %zu bytes left in the checkpoint",
                  implied, in.remaining());
    return Status::InvalidArgument(message);
  }
  // The model the config builds fixes every parameter shape (and so every
  // size); its initial values are all overwritten.
  Rng init_rng(0);
  checkpoint.model = std::make_unique<TGCRN>(config, &init_rng);
  std::vector<ag::Variable> params = checkpoint.model->Parameters();
  const uint64_t count = in.Length("parameter count", sizeof(uint64_t));
  TGCRN_RETURN_IF_ERROR(in.status());
  if (count != params.size()) {
    return Status::InvalidArgument(
        "checkpoint has " + std::to_string(count) + " parameters, its "
        "config builds " + std::to_string(params.size()));
  }
  for (ag::Variable& p : params) {
    Shape shape(in.Length("parameter rank", sizeof(int64_t)));
    for (int64_t& dim : shape) dim = in.Get<int64_t>();
    TGCRN_RETURN_IF_ERROR(in.status());
    Tensor& value = p.mutable_value();
    if (shape != value.shape()) {
      return Status::InvalidArgument(
          "checkpoint shape " + ShapeToString(shape) + " != model shape " +
          ShapeToString(value.shape()));
    }
    in.Read(value.mutable_data(),
            static_cast<size_t>(value.numel()) * sizeof(float));
  }
  TGCRN_RETURN_IF_ERROR(in.status());
  if (in.remaining() != 0) {
    return Status::InvalidArgument(std::to_string(in.remaining()) +
                                   " trailing bytes after the parameters");
  }
  return checkpoint;
}

}  // namespace core
}  // namespace tgcrn
