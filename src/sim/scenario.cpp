#include "cts/sim/scenario.hpp"

#include <algorithm>
#include <map>
#include <set>
#include <string>

#include "cts/atm/link.hpp"
#include "cts/util/error.hpp"
#include "cts/util/flags.hpp"

namespace cts::sim {

namespace cu = cts::util;

namespace {

std::string at_line(int line) {
  return "scenario spec line " + std::to_string(line) + ": ";
}

std::string trim(const std::string& s) {
  std::size_t b = s.find_first_not_of(" \t\r");
  if (b == std::string::npos) return "";
  std::size_t e = s.find_last_not_of(" \t\r");
  return s.substr(b, e - b + 1);
}

bool valid_name(const std::string& s) {
  if (s.empty()) return false;
  for (char c : s) {
    const bool ok = (c >= 'a' && c <= 'z') || (c >= 'A' && c <= 'Z') ||
                    (c >= '0' && c <= '9') || c == '_' || c == '-' ||
                    c == '.';
    if (!ok) return false;
  }
  return true;
}

std::vector<std::string> section_key_names(const ScenarioSectionDoc& doc) {
  std::vector<std::string> names;
  names.reserve(doc.count);
  for (std::size_t i = 0; i < doc.count; ++i) names.emplace_back(doc.keys[i].key);
  return names;
}

const ScenarioSectionDoc& section_doc(const std::string& section) {
  for (const ScenarioSectionDoc& doc : kScenarioSections) {
    if (section == doc.section) return doc;
  }
  throw cu::InvalidArgument("scenario spec: unknown section '" + section + "'");
}

double parse_number(int line, const std::string& key,
                    const std::string& value) {
  double out = 0.0;
  cu::require(cu::try_parse_double(value, &out),
              at_line(line) + "key '" + key + "' needs a finite number, " +
                  "got '" + value + "'");
  return out;
}

std::uint64_t parse_count(int line, const std::string& key,
                          const std::string& value, std::int64_t min) {
  std::int64_t out = 0;
  cu::require(cu::try_parse_int(value, &out) && out >= min,
              at_line(line) + "key '" + key + "' needs an integer >= " +
                  std::to_string(min) + ", got '" + value + "'");
  return static_cast<std::uint64_t>(out);
}

std::uint64_t parse_u64(int line, const std::string& key,
                        const std::string& value) {
  std::uint64_t out = 0;
  cu::require(cu::try_parse_u64(value, &out),
              at_line(line) + "key '" + key +
                  "' needs a decimal unsigned 64-bit integer, got '" + value +
                  "'");
  return out;
}

bool parse_onoff(int line, const std::string& key, const std::string& value) {
  if (value == "on" || value == "true" || value == "1" || value == "yes") {
    return true;
  }
  if (value == "off" || value == "false" || value == "0" || value == "no") {
    return false;
  }
  throw cu::InvalidArgument(at_line(line) + "key '" + key +
                            "' needs on or off, got '" + value + "'");
}

/// Per-section-instance parse state: which keys were set, and where.
struct SectionState {
  std::string section;  ///< "scenario", "source", "hop", "output"
  int line = 0;         ///< header line
  std::string label;    ///< "[source video]" for error messages
  std::map<std::string, int> seen;  ///< key -> line it was set on

  bool has(const std::string& key) const { return seen.count(key) != 0; }
};

void check_model(const ScenarioSource& source, const SectionState& state) {
  const std::string where = at_line(state.line) + state.label + " ";
  if (!source.model.zoo_id.empty()) {
    for (const char* key : {"kind", "mean", "variance", "a", "hurst",
                            "weight"}) {
      cu::require(!state.has(key), where + "takes either key 'model' or an "
                  "inline model, not both (remove '" + key + "')");
    }
    return;
  }
  cu::require(state.has("kind"),
              where + "needs key 'model' (a zoo id) or key 'kind' (an "
              "inline model)");
  const std::string& kind = source.model.kind;
  cu::require(kind == "geometric" || kind == "white" || kind == "lrd",
              where + "key 'kind' must be geometric, white, or lrd, got '" +
                  kind + "'");
  cu::require(state.has("mean") && state.has("variance"),
              where + "inline kind '" + kind +
                  "' requires keys 'mean' and 'variance'");
  cu::require(source.model.mean > 0.0, where + "key 'mean' must be > 0");
  cu::require(source.model.variance > 0.0,
              where + "key 'variance' must be > 0");
  if (kind == "geometric") {
    cu::require(state.has("a"), where + "kind = geometric requires key 'a'");
    cu::require(source.model.a > 0.0 && source.model.a < 1.0,
                where + "key 'a' must be in (0, 1)");
  } else {
    cu::require(!state.has("a"),
                where + "key 'a' is only meaningful for kind = geometric");
  }
  if (kind == "lrd") {
    cu::require(state.has("hurst") && state.has("weight"),
                where + "kind = lrd requires keys 'hurst' and 'weight'");
    cu::require(source.model.hurst > 0.5 && source.model.hurst < 1.0,
                where + "key 'hurst' must be in (0.5, 1)");
    cu::require(source.model.weight > 0.0 && source.model.weight <= 1.0,
                where + "key 'weight' must be in (0, 1]");
  } else {
    cu::require(!state.has("hurst") && !state.has("weight"),
                where + "keys 'hurst'/'weight' are only meaningful for "
                "kind = lrd");
  }
}

void check_source(const ScenarioSource& source, const SectionState& state) {
  const std::string where = at_line(state.line) + state.label + " ";
  check_model(source, state);
  if (state.has("police_bt") || state.has("police_pcr") ||
      state.has("police_cdvt")) {
    cu::require(state.has("police_scr"),
                where + "policing keys require key 'police_scr'");
  }
  if (state.has("police_scr")) {
    cu::require(source.police_scr > 0.0,
                where + "key 'police_scr' must be > 0");
    cu::require(source.police_bt >= 0.0,
                where + "key 'police_bt' must be >= 0");
  }
  if (state.has("police_pcr")) {
    cu::require(source.police_pcr >= source.police_scr,
                where + "key 'police_pcr' must be >= police_scr");
    cu::require(source.police_cdvt >= 0.0,
                where + "key 'police_cdvt' must be >= 0");
  } else {
    cu::require(!state.has("police_cdvt"),
                where + "key 'police_cdvt' requires key 'police_pcr'");
  }
}

void check_hop(const ScenarioHop& hop, const SectionState& state) {
  const std::string where = at_line(state.line) + state.label + " ";
  cu::require(state.has("input"), where + "requires key 'input'");
  cu::require(state.has("capacity") != state.has("link_mbps"),
              where + "needs exactly one of keys 'capacity' and "
              "'link_mbps'");
  cu::require(state.has("buffer"), where + "requires key 'buffer'");
  if (state.has("capacity")) {
    cu::require(hop.capacity_cells > 0.0,
                where + "key 'capacity' must be > 0");
  } else {
    cu::require(hop.link_mbps > 0.0, where + "key 'link_mbps' must be > 0");
  }
  cu::require(hop.buffer_cells >= 0.0, where + "key 'buffer' must be >= 0");
  if (state.has("threshold")) {
    cu::require(hop.threshold_cells >= 0.0 &&
                    hop.threshold_cells <= hop.buffer_cells,
                where + "key 'threshold' must satisfy 0 <= threshold <= "
                "buffer");
  }
}

/// Resolves hop inputs, enforces the consumption rules, and computes the
/// topological hop order (upstream first).  Throws on an unknown input,
/// a doubly-consumed source/hop, or a cycle.
void resolve_topology(Scenario& scenario,
                      const std::vector<SectionState>& hop_states) {
  std::map<std::string, std::size_t> source_index;
  for (std::size_t i = 0; i < scenario.sources.size(); ++i) {
    source_index[scenario.sources[i].name] = i;
  }
  std::map<std::string, std::size_t> hop_index;
  for (std::size_t i = 0; i < scenario.hops.size(); ++i) {
    hop_index[scenario.hops[i].name] = i;
  }

  std::vector<int> source_consumer(scenario.sources.size(), -1);
  std::vector<int> hop_consumer(scenario.hops.size(), -1);
  for (std::size_t h = 0; h < scenario.hops.size(); ++h) {
    ScenarioHop& hop = scenario.hops[h];
    const std::string where =
        at_line(hop_states[h].line) + hop_states[h].label + " ";
    for (const std::string& input : hop.inputs) {
      auto s = source_index.find(input);
      if (s != source_index.end()) {
        // The message names the prior consumer, so it can only be built
        // on the failure path (the index is -1 otherwise).
        if (source_consumer[s->second] >= 0) {
          throw cu::InvalidArgument(
              where + "key 'input': source '" + input +
              "' already feeds hop '" +
              scenario.hops[static_cast<std::size_t>(
                  source_consumer[s->second])].name +
              "' (a source feeds exactly one hop)");
        }
        source_consumer[s->second] = static_cast<int>(h);
        hop.source_inputs.push_back(s->second);
        continue;
      }
      auto up = hop_index.find(input);
      cu::require(up != hop_index.end(),
                  where + "key 'input': unknown name '" + input +
                      "' (no such [source] or [hop])");
      cu::require(up->second != h,
                  where + "key 'input': hop '" + input + "' feeds itself");
      if (hop_consumer[up->second] >= 0) {
        throw cu::InvalidArgument(
            where + "key 'input': hop '" + input + "' already feeds hop '" +
            scenario.hops[static_cast<std::size_t>(
                hop_consumer[up->second])].name +
            "' (a hop feeds at most one downstream hop)");
      }
      hop_consumer[up->second] = static_cast<int>(h);
      hop.hop_inputs.push_back(up->second);
    }
  }

  for (std::size_t s = 0; s < scenario.sources.size(); ++s) {
    cu::require(source_consumer[s] >= 0,
                at_line(scenario.sources[s].line) + "[source " +
                    scenario.sources[s].name +
                    "] is not consumed by any hop's 'input'");
  }

  // Kahn topological sort over the hop graph.  Every hop has at most one
  // consumer, so a leftover (unordered) hop set means a cycle.
  std::vector<std::size_t> pending(scenario.hops.size(), 0);
  for (std::size_t h = 0; h < scenario.hops.size(); ++h) {
    pending[h] = scenario.hops[h].hop_inputs.size();
  }
  std::vector<std::size_t> ready;
  for (std::size_t h = 0; h < scenario.hops.size(); ++h) {
    if (pending[h] == 0) ready.push_back(h);
  }
  scenario.hop_order.clear();
  while (!ready.empty()) {
    // Take the lowest index so the order is deterministic for a given spec.
    const auto it = std::min_element(ready.begin(), ready.end());
    const std::size_t h = *it;
    ready.erase(it);
    scenario.hop_order.push_back(h);
    if (hop_consumer[h] >= 0) {
      const std::size_t down = static_cast<std::size_t>(hop_consumer[h]);
      if (--pending[down] == 0) ready.push_back(down);
    }
  }
  if (scenario.hop_order.size() != scenario.hops.size()) {
    for (std::size_t h = 0; h < scenario.hops.size(); ++h) {
      if (pending[h] != 0) {
        throw cu::InvalidArgument(
            at_line(hop_states[h].line) + "[hop " + scenario.hops[h].name +
            "] key 'input': topology cycle through this hop");
      }
    }
  }
}

}  // namespace

Scenario parse_scenario(const std::string& text) {
  Scenario scenario;
  scenario.text = text;

  SectionState* current = nullptr;
  std::vector<SectionState> states;  ///< one per section, parse order
  std::vector<int> state_section_object;  ///< index into sources/hops; -1
  bool saw_schema = false;
  bool saw_scenario_section = false;
  bool saw_output_section = false;
  std::set<std::string> names;  ///< sources and hops share one namespace

  // Sections are parsed into these and cross-checked after the last line,
  // when every key of every section is known.
  int line_no = 0;
  std::size_t pos = 0;
  while (pos <= text.size()) {
    const std::size_t eol = text.find('\n', pos);
    const std::string raw =
        text.substr(pos, eol == std::string::npos ? std::string::npos
                                                  : eol - pos);
    pos = eol == std::string::npos ? text.size() + 1 : eol + 1;
    ++line_no;
    const std::string line = trim(raw);
    if (line.empty() || line[0] == '#') continue;

    if (!saw_schema) {
      cu::require(line == kScenarioSchema,
                  at_line(line_no) + "first line must be '" +
                      std::string(kScenarioSchema) + "', got '" + line + "'");
      saw_schema = true;
      continue;
    }

    if (line.front() == '[') {
      cu::require(line.back() == ']',
                  at_line(line_no) + "unterminated section header '" + line +
                      "'");
      const std::string inside = trim(line.substr(1, line.size() - 2));
      const std::size_t space = inside.find_first_of(" \t");
      const std::string section =
          space == std::string::npos ? inside : trim(inside.substr(0, space));
      const std::string name =
          space == std::string::npos ? "" : trim(inside.substr(space + 1));

      SectionState state;
      state.section = section;
      state.line = line_no;
      int object = -1;
      if (section == "scenario" || section == "output") {
        cu::require(name.empty(), at_line(line_no) + "section [" + section +
                                      "] does not take a name");
        bool& seen =
            section == "scenario" ? saw_scenario_section : saw_output_section;
        cu::require(!seen,
                    at_line(line_no) + "duplicate [" + section + "] section");
        seen = true;
        state.label = "[" + section + "]";
      } else if (section == "source" || section == "hop") {
        cu::require(valid_name(name),
                    at_line(line_no) + "section [" + section +
                        "] needs a name: [" + section + " NAME]");
        cu::require(names.insert(name).second,
                    at_line(line_no) + "duplicate name '" + name +
                        "' (sources and hops share one namespace)");
        state.label = "[" + section + " " + name + "]";
        if (section == "source") {
          ScenarioSource source;
          source.name = name;
          source.line = line_no;
          object = static_cast<int>(scenario.sources.size());
          scenario.sources.push_back(std::move(source));
        } else {
          ScenarioHop hop;
          hop.name = name;
          hop.line = line_no;
          object = static_cast<int>(scenario.hops.size());
          scenario.hops.push_back(std::move(hop));
        }
      } else {
        std::vector<std::string> known = {"scenario", "source", "hop",
                                          "output"};
        const std::string hint = cu::Flags::suggest(section, known);
        throw cu::InvalidArgument(
            at_line(line_no) + "unknown section [" + section + "]" +
            (hint.empty() ? "" : " (did you mean [" + hint + "]?)"));
      }
      states.push_back(std::move(state));
      state_section_object.push_back(object);
      current = &states.back();
      continue;
    }

    const std::size_t eq = line.find('=');
    cu::require(eq != std::string::npos,
                at_line(line_no) + "expected 'key = value' or a section "
                "header, got '" + line + "'");
    const std::string key = trim(line.substr(0, eq));
    const std::string value = trim(line.substr(eq + 1));
    cu::require(!key.empty(), at_line(line_no) + "empty key");
    cu::require(current != nullptr,
                at_line(line_no) + "key '" + key +
                    "' before any section header");
    cu::require(!value.empty(),
                at_line(line_no) + "key '" + key + "' has no value");

    const ScenarioSectionDoc& doc = section_doc(current->section);
    bool known = false;
    for (std::size_t i = 0; i < doc.count; ++i) {
      if (key == doc.keys[i].key) {
        known = true;
        break;
      }
    }
    if (!known) {
      const std::string hint =
          cu::Flags::suggest(key, section_key_names(doc));
      throw cu::InvalidArgument(
          at_line(line_no) + current->label + " unknown key '" + key + "'" +
          (hint.empty() ? "" : " (did you mean '" + hint + "'?)"));
    }
    const auto inserted = current->seen.emplace(key, line_no);
    cu::require(inserted.second,
                at_line(line_no) + current->label + " duplicate key '" + key +
                    "' (first set on line " +
                    std::to_string(inserted.first->second) + ")");

    const int object = state_section_object[states.size() - 1];
    if (current->section == "scenario") {
      if (key == "name") {
        cu::require(valid_name(value),
                    at_line(line_no) + "key 'name' must be a bare "
                    "identifier, got '" + value + "'");
        scenario.name = value;
      } else if (key == "frames") {
        scenario.frames = parse_count(line_no, key, value, 1);
      } else if (key == "warmup") {
        scenario.warmup = parse_count(line_no, key, value, 0);
      } else if (key == "replications") {
        scenario.replications =
            static_cast<std::size_t>(parse_count(line_no, key, value, 1));
      } else if (key == "seed") {
        scenario.seed = parse_u64(line_no, key, value);
      } else if (key == "Ts") {
        scenario.Ts = parse_number(line_no, key, value);
        cu::require(scenario.Ts > 0.0,
                    at_line(line_no) + "key 'Ts' must be > 0");
      }
    } else if (current->section == "output") {
      if (key == "occupancy_buckets") {
        scenario.occupancy_buckets =
            static_cast<std::size_t>(parse_count(line_no, key, value, 1));
        cu::require(scenario.occupancy_buckets <= 4096,
                    at_line(line_no) +
                        "key 'occupancy_buckets' must be <= 4096");
      } else if (key == "hop_trace_every") {
        scenario.hop_trace_every = parse_count(line_no, key, value, 0);
      }
    } else if (current->section == "source") {
      ScenarioSource& source =
          scenario.sources[static_cast<std::size_t>(object)];
      if (key == "model") {
        source.model.zoo_id = value;
      } else if (key == "kind") {
        source.model.kind = value;
      } else if (key == "mean") {
        source.model.mean = parse_number(line_no, key, value);
      } else if (key == "variance") {
        source.model.variance = parse_number(line_no, key, value);
      } else if (key == "a") {
        source.model.a = parse_number(line_no, key, value);
      } else if (key == "hurst") {
        source.model.hurst = parse_number(line_no, key, value);
      } else if (key == "weight") {
        source.model.weight = parse_number(line_no, key, value);
      } else if (key == "count") {
        source.count =
            static_cast<std::size_t>(parse_count(line_no, key, value, 1));
      } else if (key == "priority") {
        cu::require(value == "high" || value == "low",
                    at_line(line_no) + "key 'priority' must be high or "
                    "low, got '" + value + "'");
        source.low_priority = value == "low";
      } else if (key == "smooth") {
        source.smooth_window = parse_count(line_no, key, value, 0);
      } else if (key == "police_scr") {
        source.police_scr = parse_number(line_no, key, value);
      } else if (key == "police_bt") {
        source.police_bt = parse_number(line_no, key, value);
      } else if (key == "police_pcr") {
        source.police_pcr = parse_number(line_no, key, value);
      } else if (key == "police_cdvt") {
        source.police_cdvt = parse_number(line_no, key, value);
      } else if (key == "aal5") {
        source.aal5 = parse_onoff(line_no, key, value);
      }
    } else {  // hop
      ScenarioHop& hop = scenario.hops[static_cast<std::size_t>(object)];
      if (key == "input") {
        std::size_t start = 0;
        while (start <= value.size()) {
          const std::size_t comma = value.find(',', start);
          const std::string item =
              trim(value.substr(start, comma == std::string::npos
                                           ? std::string::npos
                                           : comma - start));
          cu::require(!item.empty(),
                      at_line(line_no) + "key 'input' has an empty entry");
          hop.inputs.push_back(item);
          if (comma == std::string::npos) break;
          start = comma + 1;
        }
      } else if (key == "capacity") {
        hop.capacity_cells = parse_number(line_no, key, value);
      } else if (key == "link_mbps") {
        hop.link_mbps = parse_number(line_no, key, value);
      } else if (key == "buffer") {
        hop.buffer_cells = parse_number(line_no, key, value);
      } else if (key == "threshold") {
        hop.threshold_cells = parse_number(line_no, key, value);
      }
    }
  }

  cu::require(saw_schema, "scenario spec: empty file (first line must be '" +
                              std::string(kScenarioSchema) + "')");
  cu::require(!scenario.sources.empty(),
              "scenario spec: no [source NAME] sections");
  cu::require(!scenario.hops.empty(), "scenario spec: no [hop NAME] sections");

  // Per-section constraint checks, then capacity resolution and topology.
  std::vector<SectionState> hop_states(scenario.hops.size());
  for (std::size_t i = 0; i < states.size(); ++i) {
    const int object = state_section_object[i];
    if (states[i].section == "source") {
      check_source(scenario.sources[static_cast<std::size_t>(object)],
                   states[i]);
    } else if (states[i].section == "hop") {
      check_hop(scenario.hops[static_cast<std::size_t>(object)], states[i]);
      hop_states[static_cast<std::size_t>(object)] = states[i];
    }
  }
  for (ScenarioHop& hop : scenario.hops) {
    if (hop.link_mbps > 0.0) {
      hop.capacity_cells =
          atm::Link(hop.link_mbps * 1e6).cells_per_frame(scenario.Ts);
    }
  }
  resolve_topology(scenario, hop_states);
  return scenario;
}

}  // namespace cts::sim
