// Copyright 2026 TGCRN Reproduction Authors
// The checkpoint contract the serving layer depends on (core/checkpoint.h,
// docs/SERVING.md "Checkpoint format"): SaveCheckpoint -> LoadCheckpoint
// rebuilds the model from its stored config with bitwise-identical eval
// forecasts and scaler, for dense, sparse and non-default architectures;
// and every corrupt, truncated, inconsistent or foreign file is rejected
// with a Status — never an abort. The fuzz cases recompute the CRC where
// they must reach the parser behind it.
#include "core/checkpoint.h"

#include <sys/resource.h>
#include <unistd.h>

#include <cstdint>
#include <cstdio>
#include <cstring>
#include <fstream>
#include <iterator>
#include <limits>
#include <string>
#include <utility>
#include <vector>

#include <gtest/gtest.h>

#include "autograd/variable.h"
#include "common/rng.h"
#include "data/dataset.h"
#include "datagen/metro_sim.h"

namespace tgcrn {
namespace {

// Byte offsets of the version 1 layout: magic[8] + uint32 version, then
// the config (9 int64 sizes, 2 floats, 4 one-byte bools, the int32 time
// encoder kind, 2 int64s, a float, a bool and a uint64 seed = 117
// bytes), then the scaler.
constexpr size_t kVersionOffset = 8;
constexpr size_t kNumNodesOffset = 12;
constexpr size_t kHiddenDimOffset = kNumNodesOffset + 4 * 8;
constexpr size_t kAlphaOffset = kNumNodesOffset + 9 * 8;
constexpr size_t kUseTagslOffset = kAlphaOffset + 2 * 4;
constexpr size_t kTimeEncoderOffset = kUseTagslOffset + 4;
constexpr size_t kRefreshOffset = kTimeEncoderOffset + 4;
constexpr size_t kTopKOffset = kRefreshOffset + 8;
constexpr size_t kScalerOffset = kNumNodesOffset + 117;

// CRC-32 (IEEE), as the format specifies it.
uint32_t Crc32(const std::string& bytes) {
  uint32_t crc = 0xFFFFFFFFu;
  for (const char c : bytes) {
    crc ^= static_cast<uint8_t>(c);
    for (int k = 0; k < 8; ++k) {
      crc = (crc >> 1) ^ (0xEDB88320u & (0u - (crc & 1u)));
    }
  }
  return ~crc;
}

// Replaces the trailing CRC so a mutated body reaches the parser.
std::string Reseal(std::string bytes) {
  bytes.resize(bytes.size() - sizeof(uint32_t));
  const uint32_t crc = Crc32(bytes);
  bytes.append(reinterpret_cast<const char*>(&crc), sizeof(crc));
  return bytes;
}

template <typename T>
std::string Patched(std::string bytes, size_t offset, T value) {
  std::memcpy(&bytes[offset], &value, sizeof(value));
  return Reseal(std::move(bytes));
}

// Per-process file names: ctest runs the cases of this binary in
// parallel processes.
std::string TempPath(const std::string& name) {
  return ::testing::TempDir() + "/" + std::to_string(::getpid()) + "_" +
         name;
}

std::string ReadFile(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  return std::string((std::istreambuf_iterator<char>(in)),
                     std::istreambuf_iterator<char>());
}

void WriteFile(const std::string& path, const std::string& bytes) {
  std::ofstream out(path, std::ios::binary | std::ios::trunc);
  out.write(bytes.data(), static_cast<std::streamsize>(bytes.size()));
}

// Loads `bytes` as a checkpoint file; the Status of the attempt.
Status LoadBytes(const std::string& bytes) {
  const std::string path = TempPath("ckpt_fuzz.bin");
  WriteFile(path, bytes);
  const Status status = core::LoadCheckpoint(path).status();
  std::remove(path.c_str());
  return status;
}

void ExpectSameConfig(const core::TGCRNConfig& a,
                      const core::TGCRNConfig& b) {
  EXPECT_EQ(a.num_nodes, b.num_nodes);
  EXPECT_EQ(a.input_dim, b.input_dim);
  EXPECT_EQ(a.output_dim, b.output_dim);
  EXPECT_EQ(a.horizon, b.horizon);
  EXPECT_EQ(a.hidden_dim, b.hidden_dim);
  EXPECT_EQ(a.num_layers, b.num_layers);
  EXPECT_EQ(a.node_embed_dim, b.node_embed_dim);
  EXPECT_EQ(a.time_embed_dim, b.time_embed_dim);
  EXPECT_EQ(a.steps_per_day, b.steps_per_day);
  EXPECT_EQ(a.alpha, b.alpha);
  EXPECT_EQ(a.lambda, b.lambda);
  EXPECT_EQ(a.use_tagsl, b.use_tagsl);
  EXPECT_EQ(a.use_tdl, b.use_tdl);
  EXPECT_EQ(a.use_pdf, b.use_pdf);
  EXPECT_EQ(a.use_encoder_decoder, b.use_encoder_decoder);
  EXPECT_EQ(a.time_encoder, b.time_encoder);
  EXPECT_EQ(a.graph_refresh_interval, b.graph_refresh_interval);
  EXPECT_EQ(a.graph_topk, b.graph_topk);
  EXPECT_EQ(a.inter_layer_dropout, b.inter_layer_dropout);
  EXPECT_EQ(a.allow_teacher_forcing, b.allow_teacher_forcing);
  EXPECT_EQ(a.sampling_seed, b.sampling_seed);
}

class CheckpointFixture : public ::testing::Test {
 protected:
  static void SetUpTestSuite() {
    datagen::MetroSimConfig config;
    config.num_stations = 6;
    config.num_days = 8;
    config.seed = 23;
    config.keep_od_ground_truth = false;
    auto sim = datagen::SimulateMetro(config);
    data::ForecastDataset::Options options;
    options.input_steps = 4;
    options.output_steps = 2;
    dataset_ = new data::ForecastDataset(std::move(sim.data), options);
  }
  static void TearDownTestSuite() {
    delete dataset_;
    dataset_ = nullptr;
  }

  static core::TGCRNConfig SmallConfig() {
    core::TGCRNConfig config;
    config.num_nodes = 6;
    config.input_dim = 2;
    config.output_dim = 2;
    config.horizon = 2;
    config.hidden_dim = 8;
    config.num_layers = 2;
    config.node_embed_dim = 6;
    config.time_embed_dim = 4;
    config.steps_per_day = 72;
    return config;
  }

  static Tensor EvalForecast(core::TGCRN* model) {
    model->SetTraining(false);
    const data::Batch batch = dataset_->MakeBatch(
        data::ForecastDataset::Split::kTest, {0});
    ag::NoGradGuard no_grad;
    return model->Forward(batch).value();
  }

  static std::string SavedBytes(const core::TGCRNConfig& config) {
    const std::string path = TempPath("ckpt_saved.bin");
    Rng rng(1);
    core::TGCRN model(config, &rng);
    EXPECT_TRUE(core::SaveCheckpoint(path, model, dataset_->scaler()).ok());
    std::string bytes = ReadFile(path);
    std::remove(path.c_str());
    return bytes;
  }

  // Save a model whose every parameter (biases included) holds random
  // values, load it back, and expect the config field by field, the
  // scaler and the eval forecasts bitwise — and a re-save of the loaded
  // pair to reproduce the file byte for byte.
  static void ExpectRoundTripIdentity(const core::TGCRNConfig& config,
                                      const std::string& path) {
    Rng rng(1);
    core::TGCRN saved(config, &rng);
    for (ag::Variable& p : saved.Parameters()) {
      p.SetValue(Tensor::RandUniform(p.value().shape(), -0.5f, 0.5f, &rng));
    }
    ASSERT_TRUE(core::SaveCheckpoint(path, saved, dataset_->scaler()).ok());
    auto loaded = core::LoadCheckpoint(path);
    ASSERT_TRUE(loaded.ok()) << loaded.status().ToString();
    core::Checkpoint& checkpoint = loaded.ValueOrDie();

    ExpectSameConfig(checkpoint.model->config(), config);
    EXPECT_EQ(checkpoint.scaler.means(), dataset_->scaler().means());
    EXPECT_EQ(checkpoint.scaler.stds(), dataset_->scaler().stds());
    const Tensor expect = EvalForecast(&saved);
    const Tensor got = EvalForecast(checkpoint.model.get());
    ASSERT_EQ(expect.shape(), got.shape());
    EXPECT_EQ(std::memcmp(expect.data(), got.data(),
                          static_cast<size_t>(expect.numel()) *
                              sizeof(float)),
              0)
        << "loaded checkpoint diverged from the saved model";

    const std::string resaved_path = path + ".resaved";
    ASSERT_TRUE(core::SaveCheckpoint(resaved_path, *checkpoint.model,
                                     checkpoint.scaler)
                    .ok());
    EXPECT_EQ(ReadFile(resaved_path), ReadFile(path));
    std::remove(resaved_path.c_str());
    std::remove(path.c_str());
  }

  static data::ForecastDataset* dataset_;
};

data::ForecastDataset* CheckpointFixture::dataset_ = nullptr;

TEST_F(CheckpointFixture, RoundTripIsBitwiseIdenticalDense) {
  ExpectRoundTripIdentity(SmallConfig(), TempPath("ckpt_dense.bin"));
}

TEST_F(CheckpointFixture, RoundTripIsBitwiseIdenticalSparseTopK) {
  core::TGCRNConfig config = SmallConfig();
  config.graph_topk = 3;
  ExpectRoundTripIdentity(config, TempPath("ckpt_sparse.bin"));
}

TEST_F(CheckpointFixture, RoundTripIsBitwiseIdenticalNonDefaultConfig) {
  core::TGCRNConfig config = SmallConfig();
  config.num_layers = 1;
  config.node_embed_dim = 6;
  config.time_embed_dim = 4;
  config.time_encoder = core::TGCRNConfig::TimeEncoderKind::kTime2vec;
  config.use_tagsl = false;
  ExpectRoundTripIdentity(config, TempPath("ckpt_custom.bin"));

  // The other switches a checkpoint must carry: the direct head, the
  // continuous encoder, graph refresh, dropout and the sampling seed.
  config = SmallConfig();
  config.use_encoder_decoder = false;
  config.time_encoder = core::TGCRNConfig::TimeEncoderKind::kContinuous;
  config.use_pdf = false;
  config.graph_refresh_interval = 2;
  config.inter_layer_dropout = 0.25f;
  config.allow_teacher_forcing = false;
  config.sampling_seed = 42;
  ExpectRoundTripIdentity(config, TempPath("ckpt_direct.bin"));
}

TEST_F(CheckpointFixture, TruncatedCheckpointIsRejected) {
  const std::string bytes = SavedBytes(SmallConfig());
  // Roughly half the file (always inside the parameter payload).
  EXPECT_FALSE(LoadBytes(bytes.substr(0, bytes.size() / 2)).ok());
}

TEST_F(CheckpointFixture, ShapeMismatchIsRejected) {
  // A stored config that no longer matches the stored parameters: the
  // model it builds has a different hidden width.
  const std::string bytes = SavedBytes(SmallConfig());
  const Status status =
      LoadBytes(Patched(bytes, kHiddenDimOffset, int64_t{12}));
  EXPECT_EQ(status.code(), StatusCode::kInvalidArgument);
  EXPECT_NE(status.message().find("shape"), std::string::npos)
      << status.ToString();
}

TEST_F(CheckpointFixture, CorruptScalerIsRejected) {
  const std::string bytes = SavedBytes(SmallConfig());
  const size_t means = kScalerOffset + sizeof(uint64_t);
  const size_t stds = means + 2 * sizeof(float);
  const float nan = std::numeric_limits<float>::quiet_NaN();
  const float inf = std::numeric_limits<float>::infinity();
  for (const float bad : {0.0f, -1.0f, nan, inf}) {
    EXPECT_FALSE(LoadBytes(Patched(bytes, stds, bad)).ok()) << bad;
  }
  EXPECT_FALSE(LoadBytes(Patched(bytes, means, nan)).ok());
  // A channel count that disagrees with the model's input/output width.
  EXPECT_FALSE(LoadBytes(Patched(bytes, kScalerOffset, uint64_t{1})).ok());
}

TEST_F(CheckpointFixture, UnfittedScalerIsNotSaved) {
  Rng rng(1);
  core::TGCRN model(SmallConfig(), &rng);
  EXPECT_FALSE(core::SaveCheckpoint(TempPath("ckpt_unfitted.bin"), model,
                                    data::StandardScaler())
                   .ok());
}

TEST_F(CheckpointFixture, MissingFileIsRejected) {
  const Status status =
      core::LoadCheckpoint(TempPath("ckpt_never_written.bin")).status();
  EXPECT_EQ(status.code(), StatusCode::kIOError);
}

TEST(CheckpointBoundTest, ParameterCountMatchesBuiltModels) {
  using Kind = core::TGCRNConfig::TimeEncoderKind;
  std::vector<core::TGCRNConfig> configs(6);
  configs[1].num_layers = 3;
  configs[1].input_dim = 3;
  configs[1].output_dim = 1;
  configs[2].use_tagsl = false;
  configs[3].time_encoder = Kind::kTime2vec;
  configs[3].use_encoder_decoder = false;
  configs[3].horizon = 5;
  configs[4].time_encoder = Kind::kContinuous;
  configs[4].time_embed_dim = 6;
  configs[5].num_layers = 1;
  configs[5].use_encoder_decoder = false;
  configs[5].use_tagsl = false;
  for (core::TGCRNConfig& config : configs) {
    config.num_nodes = 5;
    Rng rng(3);
    core::TGCRN model(config, &rng);
    int64_t floats = 0;
    for (const ag::Variable& p : model.Parameters()) {
      floats += p.value().numel();
    }
    EXPECT_EQ(core::TGCRN::ParameterCount(config),
              static_cast<double>(floats));
  }
}

// ------------------------------------------------------------------ fuzz --

class CheckpointFuzz : public ::testing::Test {
 protected:
  // A tiny model keeps the per-offset sweeps fast.
  static void SetUpTestSuite() {
    core::TGCRNConfig config;
    config.num_nodes = 3;
    config.input_dim = 1;
    config.output_dim = 1;
    config.horizon = 2;
    config.hidden_dim = 2;
    config.num_layers = 1;
    config.node_embed_dim = 2;
    config.time_embed_dim = 2;
    config.steps_per_day = 8;
    Rng rng(5);
    core::TGCRN model(config, &rng);
    data::StandardScaler scaler;
    scaler.SetMoments({1.5f}, {2.0f});
    const std::string path = TempPath("ckpt_tiny.bin");
    ASSERT_TRUE(core::SaveCheckpoint(path, model, scaler).ok());
    bytes_ = new std::string(ReadFile(path));
    std::remove(path.c_str());
    // The stream after the 1-channel scaler: count, then the first
    // parameter (the [8, 2] discrete time table).
    param_offset_ = kScalerOffset + sizeof(uint64_t) + 2 * sizeof(float);
    num_params_ = model.Parameters().size();
  }
  static void TearDownTestSuite() {
    delete bytes_;
    bytes_ = nullptr;
  }

  static std::string* bytes_;
  static size_t param_offset_;
  static size_t num_params_;
};

std::string* CheckpointFuzz::bytes_ = nullptr;
size_t CheckpointFuzz::param_offset_ = 0;
size_t CheckpointFuzz::num_params_ = 0;

TEST_F(CheckpointFuzz, PristineAndResealedFilesLoad) {
  ASSERT_TRUE(LoadBytes(*bytes_).ok());
  // The test's CRC agrees with the writer's, so resealed mutations below
  // are rejected by the parser, not by the checksum.
  EXPECT_EQ(Reseal(*bytes_), *bytes_);
}

TEST_F(CheckpointFuzz, TruncationAtEveryOffsetIsRejected) {
  for (size_t size = 0; size < bytes_->size(); ++size) {
    EXPECT_FALSE(LoadBytes(bytes_->substr(0, size)).ok()) << size;
  }
}

TEST_F(CheckpointFuzz, RandomSingleByteChangesAreRejected) {
  Rng rng(17);
  for (int trial = 0; trial < 2000; ++trial) {
    std::string mutated = *bytes_;
    const size_t at = rng.NextUint64() % mutated.size();
    mutated[at] = static_cast<char>(
        static_cast<uint8_t>(mutated[at]) ^ (1 + rng.NextUint64() % 255));
    EXPECT_FALSE(LoadBytes(mutated).ok()) << "byte " << at;
  }
}

TEST_F(CheckpointFuzz, RandomFilesAreRejected) {
  Rng rng(29);
  for (const size_t size : {0, 1, 15, 16, 17, 100, 5000}) {
    std::string noise(size, '\0');
    for (char& c : noise) c = static_cast<char>(rng.NextUint64());
    EXPECT_FALSE(LoadBytes(noise).ok()) << size;
    // Behind a valid magic, and resealed so the parser sees it.
    if (size >= sizeof(uint32_t)) {
      EXPECT_FALSE(LoadBytes(Reseal(bytes_->substr(0, 8) + noise)).ok())
          << size;
    }
  }
}

TEST_F(CheckpointFuzz, LengthFieldMutationsAreRejected) {
  const uint64_t huge = uint64_t{1} << 61;  // `Shape shape(rank)` aborted
  const uint64_t all = std::numeric_limits<uint64_t>::max();
  const size_t count = param_offset_;
  const size_t rank = count + sizeof(uint64_t);
  const size_t dim = rank + sizeof(uint64_t);
  for (const uint64_t v : {uint64_t{0}, uint64_t{num_params_ - 1},
                           uint64_t{num_params_ + 1}, huge, all}) {
    EXPECT_FALSE(LoadBytes(Patched(*bytes_, count, v)).ok()) << v;
  }
  for (const uint64_t v : {uint64_t{0}, uint64_t{1}, uint64_t{3}, huge,
                           all}) {
    EXPECT_FALSE(LoadBytes(Patched(*bytes_, rank, v)).ok()) << v;
  }
  for (const int64_t v : {int64_t{-1}, int64_t{0}, int64_t{9},
                          std::numeric_limits<int64_t>::max(),
                          std::numeric_limits<int64_t>::min()}) {
    EXPECT_FALSE(LoadBytes(Patched(*bytes_, dim, v)).ok()) << v;
  }
  for (const uint64_t v : {uint64_t{0}, uint64_t{2}, huge, all}) {
    EXPECT_FALSE(LoadBytes(Patched(*bytes_, kScalerOffset, v)).ok()) << v;
  }
}

// Peak resident set of this process, in bytes.
int64_t PeakRssBytes() {
  struct rusage usage;
  getrusage(RUSAGE_SELF, &usage);
  return static_cast<int64_t>(usage.ru_maxrss) * 1024;
}

TEST_F(CheckpointFuzz, OversizedConfigIsRejectedBeforeConstruction) {
  // CRC-valid files whose configs imply models far larger than the file:
  // 2^28 nodes alone would allocate a 2 GiB node embedding. The loader
  // must refuse them from the config, before building anything.
  const int64_t before = PeakRssBytes();
  const int64_t huge = int64_t{1} << 28;
  const int64_t max = std::numeric_limits<int64_t>::max();
  for (const auto& [offset, value] :
       {std::pair{kNumNodesOffset, huge}, std::pair{kNumNodesOffset, max},
        std::pair{kHiddenDimOffset, huge}, std::pair{kHiddenDimOffset, max},
        std::pair{kNumNodesOffset + 5 * 8, huge}}) {
    const Status status = LoadBytes(Patched(*bytes_, offset, value));
    EXPECT_EQ(status.code(), StatusCode::kInvalidArgument);
    EXPECT_NE(status.message().find("bytes left in the checkpoint"),
              std::string::npos)
        << status.ToString();
  }
  EXPECT_LT(PeakRssBytes() - before, int64_t{64} << 20);
}

TEST_F(CheckpointFuzz, HeaderAndConfigViolationsAreRejected) {
  const std::string& b = *bytes_;
  std::string bad_magic = b;
  bad_magic[0] = 'X';
  EXPECT_FALSE(LoadBytes(Reseal(bad_magic)).ok());
  EXPECT_FALSE(LoadBytes(Patched(b, kVersionOffset, uint32_t{2})).ok());
  EXPECT_FALSE(LoadBytes(Patched(b, kNumNodesOffset, int64_t{0})).ok());
  EXPECT_FALSE(LoadBytes(Patched(b, kNumNodesOffset, int64_t{-3})).ok());
  EXPECT_FALSE(LoadBytes(Patched(b, kAlphaOffset,
                                 std::numeric_limits<float>::quiet_NaN()))
                   .ok());
  EXPECT_FALSE(LoadBytes(Patched(b, kUseTagslOffset, uint8_t{2})).ok());
  EXPECT_FALSE(LoadBytes(Patched(b, kTimeEncoderOffset, int32_t{3})).ok());
  EXPECT_FALSE(LoadBytes(Patched(b, kTimeEncoderOffset, int32_t{-1})).ok());
  EXPECT_FALSE(LoadBytes(Patched(b, kRefreshOffset, int64_t{0})).ok());
  EXPECT_FALSE(LoadBytes(Patched(b, kTopKOffset, int64_t{-1})).ok());
  // The continuous encoder (kind 2) needs an even time_embed_dim; the
  // tiny model's is 2, so make it 3.
  std::string odd = b;
  const int64_t three = 3;
  std::memcpy(&odd[kNumNodesOffset + 7 * 8], &three, sizeof(three));
  EXPECT_FALSE(LoadBytes(Patched(odd, kTimeEncoderOffset, int32_t{2})).ok());
  // Bytes between the parameters and the CRC.
  std::string trailing = b;
  trailing.insert(trailing.size() - sizeof(uint32_t), 4, '\0');
  const Status status = LoadBytes(Reseal(trailing));
  EXPECT_NE(status.message().find("trailing"), std::string::npos)
      << status.ToString();
}

TEST_F(CheckpointFuzz, NegativeOrNonFiniteAlphaIsRejected) {
  // The sparse selection bounds every gate by 1 + alpha, which needs
  // alpha >= 0; the loader refuses the rest by name.
  const float inf = std::numeric_limits<float>::infinity();
  for (const float bad : {-0.5f, -1e-30f, -inf, inf,
                          std::numeric_limits<float>::quiet_NaN()}) {
    const Status status = LoadBytes(Patched(*bytes_, kAlphaOffset, bad));
    EXPECT_EQ(status.code(), StatusCode::kInvalidArgument) << bad;
    EXPECT_NE(status.message().find("alpha"), std::string::npos)
        << status.ToString();
  }
  for (const float good : {0.0f, -0.0f, 0.3f, 2.0f}) {
    EXPECT_TRUE(LoadBytes(Patched(*bytes_, kAlphaOffset, good)).ok())
        << good;
  }
}

}  // namespace
}  // namespace tgcrn
