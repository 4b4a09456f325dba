// Copyright 2026 TGCRN Reproduction Authors
// CSV ingestion for user-provided datasets. The expected layout matches
// what the public traffic datasets ship as after preprocessing:
//
//   timestamp_index,slot_of_day,day_of_week,node0_f0,node0_f1,...,nodeN_fD
//
// i.e. one row per time step, three calendar columns, then num_nodes *
// num_features value columns in node-major order. A header line is
// optional (detected by a non-numeric first field). All failures are
// reported through Status - malformed rows name the line number.
#ifndef TGCRN_DATA_CSV_LOADER_H_
#define TGCRN_DATA_CSV_LOADER_H_

#include <string>

#include "common/status.h"
#include "data/dataset.h"

namespace tgcrn {
namespace data {

struct CsvLoadOptions {
  int64_t num_nodes = 0;
  int64_t num_features = 0;
  int64_t steps_per_day = 0;
};

// Parses the file at `path` into a SpatioTemporalData. Validates column
// counts, the timestamp index (a finite number, otherwise unused), the
// calendar fields (integers, slot in [0, steps_per_day), day in [0, 7)),
// numeric parse failures and non-finite cells (nan, inf, or a value that
// overflows a float), naming the line and column of the bad cell. Every
// malformed input is a Status error, never a crash.
Result<SpatioTemporalData> LoadCsv(const std::string& path,
                                   const CsvLoadOptions& options);

// Writes `data` in the same layout (useful for exporting simulator output
// so external tools can consume it, and for round-trip tests).
Status SaveCsv(const SpatioTemporalData& data, const std::string& path);

}  // namespace data
}  // namespace tgcrn

#endif  // TGCRN_DATA_CSV_LOADER_H_
