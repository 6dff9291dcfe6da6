// Environment-variable knobs shared by benches and examples.
#pragma once

#include <cstdint>
#include <string>

namespace pg {

/// Reads an environment variable, returning `fallback` when unset/empty.
std::string env_string(const char* name, const std::string& fallback);

/// Reads an integer environment variable (fallback on unset or parse error).
std::int64_t env_int(const char* name, std::int64_t fallback);

/// Worker-thread override: `PARAGRAPH_THREADS` as a positive integer, or 0
/// when unset/invalid — 0 means "keep the OpenMP default". Consumers (the
/// CLI's predict/corpus subcommands) pass a positive value to
/// pg::set_thread_count before building engines or datasets. paragraph-serve
/// reads the same variable through serve::apply_serve_knobs instead, as the
/// per-shard thread count (unset = 1).
std::int64_t env_thread_count();

/// Dataset scale selector: `PARAGRAPH_SCALE` = "smoke" | "default" | "full".
/// Controls how many sweep points the dataset generator emits; see
/// `dataset::SweepScale`.
enum class RunScale { kSmoke, kDefault, kFull };

RunScale run_scale_from_env();

/// Human-readable name of a scale value ("smoke"/"default"/"full").
const char* to_string(RunScale scale);

}  // namespace pg
