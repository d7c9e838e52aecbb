// Wire protocol for the copift_serve daemon: line-delimited JSON.
//
// Every message — request or response — is one JSON object on one line,
// terminated by '\n'. Requests are read with common/json's parser; this
// header adds the typed request schema the server validates against, with
// the same descriptive value-carrying errors the workload registry uses.
//
// Requests (client -> server):
//   {"id":1,"type":"run","workloads":["exp"],"variants":["copift"],
//    "block":[32,64],"cores":[1,2],"verify":true}
//   {"id":2,"type":"health"}
//   {"id":3,"type":"stats"}
//
// Responses (server -> client, all carrying the request id):
//   {"id":1,"event":"accepted","points":4,"cached":1}
//   {"id":1,"event":"progress","done":2,"total":4}
//   {"id":1,"event":"result","rows":[...],"cache":{...}}
//   {"id":1,"event":"error","message":"..."}
//
// See docs/serving.md for complete transcripts and field semantics.
#pragma once

#include <cstdint>
#include <string>
#include <string_view>
#include <vector>

#include "common/json.hpp"
#include "engine/experiment.hpp"
#include "workload/workload.hpp"

namespace copift::serve {

/// Raised on malformed JSON or a request that violates the schema. Parse
/// errors carry the byte offset of the offending character; validation
/// errors name the offending key and value. The JSON reader's own error
/// type, so one catch covers both.
using ProtocolError = JsonError;
using copift::Json;

/// A validated client request. Its axes mirror engine::ParamGrid's; empty
/// axes were absent from the JSON and take each workload's defaults in
/// request_grid.
struct Request {
  enum class Type { kRun, kHealth, kStats };

  std::uint64_t id = 0;
  Type type = Type::kRun;

  // kRun fields.
  std::vector<std::string> workloads;
  std::vector<workload::Variant> variants;
  std::vector<std::uint32_t> ns;
  std::vector<std::uint32_t> blocks;
  std::vector<std::uint32_t> cores;
  std::vector<std::uint32_t> tiles;  // 0 = untiled (TCDM-resident arrays)
  std::vector<std::uint32_t> seeds;
  bool verify = true;
  bool progress = true;  // emit per-point progress events for this request
};

/// Parse + validate one request line. Errors are descriptive and
/// value-carrying: unknown workloads list the registered names, bad axis
/// values name the axis, index and offending value, and every workload x
/// variant x config point is pre-validated through Workload::validate so a
/// doomed sweep is rejected before it is scheduled. `max_points` bounds the
/// expanded grid size.
Request parse_request(std::string_view line, std::size_t max_points);

/// The grid of one of the request's workloads: the request's axes, each
/// absent one filled from that workload's defaults, and the default
/// SimParams. A reply's rows are the points of its workloads' grids, in
/// request order.
engine::ParamGrid request_grid(const Request& request, const std::string& workload);

}  // namespace copift::serve
