// Copyright 2026 TGCRN Reproduction Authors
// The one persisted form of a trained TGCRN: a versioned, CRC-checked
// file holding its TGCRNConfig, the fitted z-score scaler and the
// parameter values, so a loader needs nothing but the file. Byte layout:
// docs/SERVING.md "Checkpoint format".
#ifndef TGCRN_CORE_CHECKPOINT_H_
#define TGCRN_CORE_CHECKPOINT_H_

#include <memory>
#include <string>

#include "common/status.h"
#include "core/tgcrn.h"
#include "data/dataset.h"

namespace tgcrn {
namespace core {

struct Checkpoint {
  std::unique_ptr<TGCRN> model;  // built from the stored config
  data::StandardScaler scaler;
};

// Writes `model` (config + parameters) and `scaler` to `path`. The scaler
// must be fitted over the model's input_dim == output_dim channels.
Status SaveCheckpoint(const std::string& path, const TGCRN& model,
                      const data::StandardScaler& scaler);

// Reads and fully validates a checkpoint. Any corrupt, truncated,
// inconsistent or foreign file yields a non-OK Status, never an abort;
// on success the model's eval forecasts and the scaler are bitwise those
// of the saved pair.
Result<Checkpoint> LoadCheckpoint(const std::string& path);

}  // namespace core
}  // namespace tgcrn

#endif  // TGCRN_CORE_CHECKPOINT_H_
