#include "serve/protocol.hpp"

#include <limits>

namespace copift::serve {

// --- request validation -----------------------------------------------------

namespace {

std::vector<std::uint32_t> axis_values(const Json& req, const char* key, bool allow_zero) {
  const Json* v = req.find(key);
  if (v == nullptr) return {};
  std::vector<std::uint32_t> out;
  const auto& items = v->is_array() ? v->as_array() : Json::Array{*v};
  if (items.empty()) {
    throw ProtocolError(std::string("\"") + key + "\" must not be an empty array");
  }
  out.reserve(items.size());
  for (std::size_t i = 0; i < items.size(); ++i) {
    std::uint32_t value;
    try {
      value = items[i].as_u32();
    } catch (const ProtocolError& e) {
      throw ProtocolError(std::string("\"") + key + "\"[" + std::to_string(i) +
                          "]: " + e.what());
    }
    if (value == 0 && !allow_zero) {
      throw ProtocolError(std::string("\"") + key + "\"[" + std::to_string(i) +
                          "]=0: must be positive");
    }
    out.push_back(value);
  }
  return out;
}

}  // namespace

Request parse_request(std::string_view line, std::size_t max_points) {
  const Json doc = Json::parse(line);
  if (!doc.is_object()) {
    throw ProtocolError("request must be a JSON object, got " + doc.dump());
  }

  static constexpr const char* kKnownKeys[] = {"id",    "type",  "workloads", "variants",
                                               "n",     "block", "cores",     "tile",
                                               "seeds", "verify", "progress"};
  for (const auto& [key, value] : doc.as_object()) {
    bool known = false;
    for (const char* k : kKnownKeys) known = known || key == k;
    if (!known) {
      std::string allowed;
      for (const char* k : kKnownKeys) {
        if (!allowed.empty()) allowed += ", ";
        allowed += k;
      }
      throw ProtocolError("unknown key \"" + key + "\" (allowed: " + allowed + ")");
    }
  }

  Request req;
  req.id = doc.at("id").as_u64();

  const std::string& type = doc.at("type").as_string();
  if (type == "health") req.type = Request::Type::kHealth;
  else if (type == "stats") req.type = Request::Type::kStats;
  else if (type == "run") req.type = Request::Type::kRun;
  else {
    throw ProtocolError("unknown request type \"" + type +
                        "\" (expected one of: run, health, stats)");
  }
  if (req.type != Request::Type::kRun) return req;

  const auto& registry = workload::WorkloadRegistry::instance();
  const Json& workloads = doc.at("workloads");
  const auto& wl_items =
      workloads.is_array() ? workloads.as_array() : Json::Array{workloads};
  if (wl_items.empty()) throw ProtocolError("\"workloads\" must not be an empty array");
  for (const auto& item : wl_items) {
    const std::string& name = item.as_string();
    if (registry.find(name) == nullptr) {
      throw ProtocolError("unknown workload \"" + name +
                          "\" (registered: " + registry.names_list() + ")");
    }
    req.workloads.push_back(name);
  }

  if (const Json* variants = doc.find("variants")) {
    const auto& items = variants->is_array() ? variants->as_array() : Json::Array{*variants};
    if (items.empty()) throw ProtocolError("\"variants\" must not be an empty array");
    for (const auto& item : items) {
      try {
        req.variants.push_back(workload::variant_from(item.as_string()));
      } catch (const Error& e) {
        throw ProtocolError(std::string("\"variants\": ") + e.what());
      }
    }
  }

  req.ns = axis_values(doc, "n", false);
  req.blocks = axis_values(doc, "block", false);
  req.cores = axis_values(doc, "cores", false);
  req.tiles = axis_values(doc, "tile", true);  // 0 = untiled
  req.seeds = axis_values(doc, "seeds", true);  // 0 is a legal seed
  if (const Json* verify = doc.find("verify")) req.verify = verify->as_bool();
  if (const Json* progress = doc.find("progress")) req.progress = progress->as_bool();

  // Pre-validate every (workload, variant, config) the grid will expand to,
  // with each workload's own defaults filling absent axes — a doomed request
  // is rejected here with the workload's value-carrying ConfigError instead
  // of failing halfway through a scheduled sweep.
  //
  // The point count is a *product* of axis sizes, so a compact request line
  // can encode an astronomically large grid; the limit must be enforced on
  // the saturating product of sizes BEFORE any point is built, or a single
  // line would pin the reader thread for the lifetime of the process
  // (ParamGrid::size() does not saturate).
  constexpr std::size_t kSaturated = std::numeric_limits<std::size_t>::max();
  std::size_t points = 0;
  for (const auto& name : req.workloads) {
    const engine::ParamGrid grid = request_grid(req, name);
    std::size_t count = 1;
    for (const std::size_t axis :
         {grid.variants.size(), grid.ns.size(), grid.blocks.size(), grid.cores.size(),
          grid.tiles.size(), grid.seeds.size()}) {
      count = count > kSaturated / axis ? kSaturated : count * axis;
    }
    points = count > kSaturated - points ? kSaturated : points + count;
    if (points > max_points) {
      throw ProtocolError("request expands to " +
                          (points == kSaturated ? std::string("over ") +
                                                      std::to_string(kSaturated)
                                                : std::to_string(points)) +
                          " grid points, above the server limit of " +
                          std::to_string(max_points));
    }

    for (std::size_t i = 0; i < grid.size(); ++i) {
      const engine::GridPoint point = grid.point(i);
      try {
        point.workload->validate(point.variant, point.config);
      } catch (const Error& e) {
        throw ProtocolError(std::string("invalid grid point: ") + e.what());
      }
    }
  }
  return req;
}

engine::ParamGrid request_grid(const Request& request, const std::string& workload) {
  const auto wl = workload::WorkloadRegistry::instance().at(workload);
  const auto defaults = wl->default_config();
  const auto axis = [](const std::vector<std::uint32_t>& values, std::uint32_t fallback) {
    return values.empty() ? std::vector<std::uint32_t>{fallback} : values;
  };
  engine::ParamGrid grid;
  grid.workloads = {workload};
  grid.variants = request.variants.empty()
                      ? std::vector<workload::Variant>{wl->default_variant()}
                      : request.variants;
  grid.ns = axis(request.ns, defaults.n);
  grid.blocks = axis(request.blocks, defaults.block);
  grid.cores = axis(request.cores, defaults.cores);
  grid.tiles = axis(request.tiles, defaults.tile);
  grid.seeds = axis(request.seeds, defaults.seed);
  return grid;
}

}  // namespace copift::serve
