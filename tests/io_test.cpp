// pg::io regression suite over the checked-in golden corpus
// (tests/golden/): byte-exact round trips for all three payload kinds,
// rejection of bad magic / versions / schema hashes, truncation and
// corrupt-section-table error paths, the graph builder pinned against
// the golden text dumps (any encoder/builder drift fails here first), the
// bulk array primitives, memory-vs-stream reader parity, and the bound on
// what a corrupt count can make a reader allocate.
#include <gtest/gtest.h>

#include <bit>
#include <cstdint>
#include <fstream>
#include <map>
#include <optional>
#include <sstream>
#include <streambuf>
#include <string>
#include <vector>

#include "frontend/parser.hpp"
#include "graph/builder.hpp"
#include "io/binary.hpp"
#include "io/dataset_view.hpp"
#include "io/format_detail.hpp"
#include "io/pgraph_io.hpp"
#include "model/encoding.hpp"

#ifndef PG_GOLDEN_DIR
#error "PG_GOLDEN_DIR must point at tests/golden"
#endif

namespace pg {
namespace {

std::string golden_path(const std::string& name) {
  return std::string(PG_GOLDEN_DIR) + "/" + name;
}

std::string slurp(const std::string& path) {
  std::ifstream is(path, std::ios::binary);
  EXPECT_TRUE(static_cast<bool>(is)) << "cannot open " << path;
  std::ostringstream buffer;
  buffer << is.rdbuf();
  return buffer.str();
}

/// One MANIFEST.txt corpus line, e.g.
/// "matvec_cpu kernel=matvec variant=cpu teams=1 threads=8 ...".
struct ManifestEntry {
  std::string name;
  std::map<std::string, std::string> fields;

  [[nodiscard]] std::int64_t int_field(const std::string& key) const {
    return std::stoll(fields.at(key));
  }
};

struct Manifest {
  std::uint64_t schema_hash = 0;
  double child_weight_scale = 0.0;
  std::vector<ManifestEntry> entries;
};

// gtest ASSERT_* macros require a void function, hence the out-param.
void read_manifest(Manifest& manifest) {
  std::istringstream is(slurp(golden_path("MANIFEST.txt")));
  std::string line;
  while (std::getline(is, line)) {
    if (line.empty() || line[0] == '#') continue;
    std::istringstream fields(line);
    std::string head;
    fields >> head;
    if (head == "format-version") continue;
    if (head == "schema-hash") {
      std::string hex;
      fields >> hex;
      manifest.schema_hash = std::stoull(hex, nullptr, 16);
      continue;
    }
    if (head == "child-weight-scale") {
      std::string value;
      fields >> value;
      manifest.child_weight_scale = std::stod(value);
      continue;
    }
    ManifestEntry entry;
    entry.name = head;
    std::string kv;
    while (fields >> kv) {
      const auto eq = kv.find('=');
      ASSERT_NE(eq, std::string::npos) << line;
      entry.fields[kv.substr(0, eq)] = kv.substr(eq + 1);
    }
    manifest.entries.push_back(std::move(entry));
  }
  ASSERT_FALSE(manifest.entries.empty());
}


graph::ProgramGraph build_from_golden_source(const ManifestEntry& entry) {
  const std::string source = slurp(golden_path(entry.name + ".c"));
  const frontend::ParseResult parsed = frontend::parse_source(source);
  EXPECT_TRUE(parsed.ok()) << parsed.diagnostics.summary();
  graph::BuildOptions options;
  options.representation = graph::Representation::kParaGraph;
  const bool gpu = entry.fields.at("variant").rfind("gpu", 0) == 0;
  const std::int64_t teams = entry.int_field("teams");
  const std::int64_t threads = entry.int_field("threads");
  options.parallel_workers = gpu ? teams * threads : threads;
  return graph::build_graph(parsed.root(), options);
}

// --- feature-order contract ----------------------------------------------

TEST(IoSchema, HashIsStableAcrossCalls) {
  EXPECT_EQ(io::feature_schema_hash(), io::feature_schema_hash());
  EXPECT_NE(io::feature_schema_hash(), 0u);
}

TEST(IoSchema, HashMatchesGoldenManifest) {
  Manifest manifest;
  ASSERT_NO_FATAL_FAILURE(read_manifest(manifest));
  EXPECT_EQ(io::feature_schema_hash(), manifest.schema_hash)
      << "the node-kind/edge-type feature contract changed; regenerate "
         "tests/golden with paragraph-cli corpus --golden (and bump the "
         "format version if files in the wild must stay readable)";
}

// --- golden pinning -------------------------------------------------------

TEST(IoGolden, BuilderMatchesGoldenTextDumps) {
  Manifest manifest;
  ASSERT_NO_FATAL_FAILURE(read_manifest(manifest));
  for (const ManifestEntry& entry : manifest.entries) {
    const graph::ProgramGraph graph = build_from_golden_source(entry);
    std::ostringstream text;
    graph.serialize(text);
    EXPECT_EQ(text.str(), slurp(golden_path(entry.name + ".pgraph.txt")))
        << entry.name << ": builder output drifted from the golden dump";
  }
}

TEST(IoGolden, BinaryGraphsMatchGoldenFiles) {
  Manifest manifest;
  ASSERT_NO_FATAL_FAILURE(read_manifest(manifest));
  for (const ManifestEntry& entry : manifest.entries) {
    const graph::ProgramGraph graph = build_from_golden_source(entry);
    std::ostringstream os(std::ios::binary);
    io::write_graph(os, graph);
    EXPECT_EQ(os.str(), slurp(golden_path(entry.name + ".pgraph")))
        << entry.name << ": binary graph encoding drifted";
  }
}

TEST(IoGolden, EncodedSamplesMatchGoldenFiles) {
  Manifest manifest;
  ASSERT_NO_FATAL_FAILURE(read_manifest(manifest));

  std::ifstream ds(golden_path("corpus.pgds"), std::ios::binary);
  ASSERT_TRUE(static_cast<bool>(ds));
  io::DatasetReader reader(ds);
  const io::DatasetMeta meta = reader.meta();
  EXPECT_DOUBLE_EQ(meta.child_weight_scale, manifest.child_weight_scale);

  model::SampleSet scalers;
  meta.apply_scalers(scalers);

  for (const ManifestEntry& entry : manifest.entries) {
    const graph::ProgramGraph graph = build_from_golden_source(entry);
    const model::TrainingSample stored =
        io::read_sample_file(golden_path(entry.name + ".psample"));

    model::TrainingSample rebuilt;
    rebuilt.graph = model::encode_graph(graph, meta.child_weight_scale);
    rebuilt.aux = {static_cast<float>(scalers.teams_scaler.transform(
                       static_cast<double>(entry.int_field("teams")))),
                   static_cast<float>(scalers.threads_scaler.transform(
                       static_cast<double>(entry.int_field("threads"))))};
    rebuilt.runtime_us = std::stod(entry.fields.at("runtime_us"));
    rebuilt.target_scaled = scalers.to_target(rebuilt.runtime_us);
    rebuilt.app_id = stored.app_id;
    rebuilt.app_name = stored.app_name;
    rebuilt.variant = stored.variant;

    std::ostringstream rebuilt_bytes(std::ios::binary);
    io::write_sample(rebuilt_bytes, rebuilt);
    EXPECT_EQ(rebuilt_bytes.str(), slurp(golden_path(entry.name + ".psample")))
        << entry.name << ": sample encoding drifted";
  }
}

// --- byte-exact round trips ----------------------------------------------

TEST(IoRoundTrip, GraphBytesAreStable) {
  const std::string original = slurp(golden_path("matvec_cpu.pgraph"));
  std::istringstream is(original, std::ios::binary);
  const graph::ProgramGraph graph = io::read_graph(is);
  std::ostringstream os(std::ios::binary);
  io::write_graph(os, graph);
  EXPECT_EQ(os.str(), original);
}

TEST(IoRoundTrip, GraphContentsSurvive) {
  const graph::ProgramGraph graph =
      io::read_graph_file(golden_path("corr_gpu_mem.pgraph"));
  std::ostringstream os(std::ios::binary);
  io::write_graph(os, graph);
  std::istringstream is(os.str(), std::ios::binary);
  const graph::ProgramGraph again = io::read_graph(is);
  ASSERT_EQ(again.num_nodes(), graph.num_nodes());
  ASSERT_EQ(again.num_edges(), graph.num_edges());
  for (std::size_t i = 0; i < graph.num_edges(); ++i)
    EXPECT_EQ(again.edges()[i], graph.edges()[i]) << "edge " << i;
  for (std::size_t i = 0; i < graph.num_nodes(); ++i) {
    EXPECT_EQ(again.nodes()[i].kind, graph.nodes()[i].kind) << "node " << i;
    EXPECT_EQ(again.nodes()[i].label, graph.nodes()[i].label) << "node " << i;
  }
}

TEST(IoRoundTrip, SampleBytesAreStable) {
  const std::string original =
      slurp(golden_path("matmul_gpu_collapse_mem.psample"));
  std::istringstream is(original, std::ios::binary);
  const model::TrainingSample sample = io::read_sample(is);
  std::ostringstream os(std::ios::binary);
  io::write_sample(os, sample);
  EXPECT_EQ(os.str(), original);

  // Spot-check decoded contents, down to feature bits.
  EXPECT_EQ(sample.variant, "gpu_collapse_mem");
  EXPECT_EQ(sample.graph.features.cols(), model::kNodeFeatureDim);
  EXPECT_EQ(sample.graph.features.rows(), sample.graph.relations.num_nodes);
  EXPECT_DOUBLE_EQ(sample.runtime_us, 850.0);
}

TEST(IoRoundTrip, DatasetBytesAreStable) {
  const std::string original = slurp(golden_path("corpus.pgds"));
  std::istringstream is(original, std::ios::binary);
  const io::StoredSampleSet stored = io::read_sample_set(is);
  EXPECT_EQ(stored.set.train.size(), 4u);
  EXPECT_EQ(stored.set.validation.size(), 0u);

  std::ostringstream os(std::ios::binary);
  io::write_sample_set(os, stored.set, stored.meta.platform,
                       stored.meta.representation, stored.meta.seed,
                       /*format_version=*/1);
  EXPECT_EQ(os.str(), original);
}

TEST(IoRoundTrip, DatasetV2BytesAreStable) {
  const std::string original = slurp(golden_path("corpus_v2.pgds"));
  std::istringstream is(original, std::ios::binary);
  const io::StoredSampleSet stored = io::read_sample_set(is);
  EXPECT_EQ(stored.set.train.size(), 4u);
  EXPECT_EQ(stored.set.validation.size(), 0u);

  std::ostringstream os(std::ios::binary);
  io::write_sample_set(os, stored.set, stored.meta.platform,
                       stored.meta.representation, stored.meta.seed);
  EXPECT_EQ(os.str(), original);  // the default writer format is v2
}

TEST(IoRoundTrip, GoldenV1AndV2DecodeIdentically) {
  // Both golden fixtures hold the same records; the streaming reader must
  // produce byte-identical samples from each.
  for (const char* name : {"corpus.pgds", "corpus_v2.pgds"}) {
    std::ifstream is(golden_path(name), std::ios::binary);
    ASSERT_TRUE(static_cast<bool>(is)) << name;
    io::DatasetReader reader(is);
    model::TrainingSample sample;
    io::Split split = io::Split::kValidation;
    std::size_t count = 0;
    while (reader.next(sample, split)) ++count;
    EXPECT_EQ(count, 4u) << name;
  }
  const std::string v1 = slurp(golden_path("corpus.pgds"));
  const std::string v2 = slurp(golden_path("corpus_v2.pgds"));
  // v2 = v1 with the version field patched and the index appended; the
  // record bytes themselves are untouched.
  ASSERT_GT(v2.size(), v1.size());
  EXPECT_EQ(v2.substr(10, v1.size() - 10), v1.substr(10));
  EXPECT_NE(v2.substr(8, 2), v1.substr(8, 2));
}

TEST(IoRoundTrip, DatasetStreamingReaderSeesEveryRecord) {
  std::ifstream is(golden_path("corpus.pgds"), std::ios::binary);
  ASSERT_TRUE(static_cast<bool>(is));
  io::DatasetReader reader(is);
  model::TrainingSample sample;
  io::Split split = io::Split::kValidation;
  std::size_t count = 0;
  while (reader.next(sample, split)) {
    EXPECT_EQ(split, io::Split::kTrain);
    EXPECT_GT(sample.graph.relations.num_nodes, 0u);
    ++count;
  }
  EXPECT_EQ(count, 4u);
  EXPECT_EQ(reader.records_read(), 4u);
  // A drained reader stays drained.
  EXPECT_FALSE(reader.next(sample, split));
}

// --- rejection paths ------------------------------------------------------

using Bytes = std::string;

void expect_rejected(Bytes bytes, const char* what) {
  std::istringstream is(std::move(bytes), std::ios::binary);
  EXPECT_THROW(io::read_graph(is), io::FormatError) << what;
}

TEST(IoReject, BadMagic) {
  Bytes bytes = slurp(golden_path("matvec_cpu.pgraph"));
  bytes[0] = 'X';
  expect_rejected(std::move(bytes), "bad magic");
}

TEST(IoReject, EmptyFile) { expect_rejected({}, "empty file"); }

TEST(IoReject, FutureFormatVersion) {
  Bytes bytes = slurp(golden_path("matvec_cpu.pgraph"));
  bytes[8] = 0x7f;  // u16 version little-endian low byte
  expect_rejected(std::move(bytes), "future version");
}

TEST(IoReject, WrongPayloadKind) {
  // A valid sample file is not a graph file.
  Bytes bytes = slurp(golden_path("matvec_cpu.psample"));
  expect_rejected(std::move(bytes), "wrong kind");

  std::istringstream is(slurp(golden_path("matvec_cpu.pgraph")),
                        std::ios::binary);
  EXPECT_THROW(io::read_sample(is), io::FormatError);
}

TEST(IoReject, SchemaHashMismatch) {
  Bytes bytes = slurp(golden_path("matvec_cpu.pgraph"));
  bytes[12] = static_cast<char>(bytes[12] ^ 0x5a);  // u64 schema hash
  expect_rejected(std::move(bytes), "schema mismatch");
}

TEST(IoReject, TruncatedAtEveryPrefix) {
  const Bytes bytes = slurp(golden_path("matvec_cpu.pgraph"));
  // Every proper prefix must throw FormatError — never crash, never succeed.
  for (std::size_t len = 0; len < bytes.size();
       len += (len < 64 ? 1 : 97)) {
    std::istringstream is(bytes.substr(0, len), std::ios::binary);
    EXPECT_THROW(io::read_graph(is), io::FormatError) << "prefix " << len;
  }
}

TEST(IoReject, CorruptSectionCount) {
  Bytes bytes = slurp(golden_path("matvec_cpu.pgraph"));
  // u32 section count at offset 20.
  bytes[20] = 0;
  bytes[21] = 0;
  expect_rejected(std::move(bytes), "zero sections");

  Bytes huge = slurp(golden_path("matvec_cpu.pgraph"));
  huge[20] = static_cast<char>(0xff);
  huge[21] = static_cast<char>(0xff);
  expect_rejected(std::move(huge), "implausible section count");
}

TEST(IoReject, CorruptSectionSize) {
  // First table entry: id at 24..27, u64 size at 28..35.
  Bytes grown = slurp(golden_path("matvec_cpu.pgraph"));
  grown[28] = static_cast<char>(grown[28] + 1);  // size+1 -> overruns payload
  expect_rejected(std::move(grown), "grown section size");

  Bytes shrunk = slurp(golden_path("matvec_cpu.pgraph"));
  shrunk[28] = static_cast<char>(shrunk[28] - 1);  // size-1 -> section overrun
  expect_rejected(std::move(shrunk), "shrunk section size");

  Bytes absurd = slurp(golden_path("matvec_cpu.pgraph"));
  absurd[34] = static_cast<char>(0x7f);  // ~2^55 bytes
  expect_rejected(std::move(absurd), "absurd section size");
}

TEST(IoReject, DuplicateSectionId) {
  Bytes bytes = slurp(golden_path("matvec_cpu.pgraph"));
  // Overwrite the edges-section id (second table entry, offset 36) with the
  // nodes-section id (first entry, offset 24).
  for (int i = 0; i < 4; ++i) bytes[36 + i] = bytes[24 + i];
  expect_rejected(std::move(bytes), "duplicate section id");
}

TEST(IoReject, CorruptNodeCount) {
  Bytes bytes = slurp(golden_path("matvec_cpu.pgraph"));
  // Node count is the first u64 of the first section payload (offset 48).
  for (int i = 0; i < 8; ++i) bytes[48 + i] = static_cast<char>(0xff);
  expect_rejected(std::move(bytes), "absurd node count");
}

TEST(IoReject, UnknownSectionsAreSkipped) {
  // Forward compatibility: an extra section with an unknown id must be
  // ignored, not rejected. Rebuild the file with a third section.
  const Bytes original = slurp(golden_path("matvec_cpu.pgraph"));
  const std::string extra_payload = "future bytes";

  std::ostringstream os(std::ios::binary);
  io::StreamSink sink{os};
  os.write(original.data(), 20);         // magic + version + kind + schema
  io::put_u32(sink, 3);                  // section count 2 -> 3
  os.write(original.data() + 24, 24);    // the two original table entries
  io::put_u32(sink, 0x7fff);             // unknown section id
  io::put_u64(sink, extra_payload.size());
  os.write(original.data() + 48,
           static_cast<std::streamsize>(original.size() - 48));  // payloads
  os.write(extra_payload.data(),
           static_cast<std::streamsize>(extra_payload.size()));

  std::istringstream is(os.str(), std::ios::binary);
  const graph::ProgramGraph graph = io::read_graph(is);
  EXPECT_EQ(graph.num_nodes(), 59u);
  EXPECT_EQ(graph.num_edges(), 123u);
}

TEST(IoReject, DatasetDroppedTail) {
  // Chopping off the end marker (and part of the last record) must be
  // detected as truncation, not silently yield fewer records.
  const Bytes bytes = slurp(golden_path("corpus.pgds"));
  std::istringstream is(bytes.substr(0, bytes.size() - 20), std::ios::binary);
  io::DatasetReader reader(is);
  model::TrainingSample sample;
  io::Split split = io::Split::kTrain;
  EXPECT_THROW({
    while (reader.next(sample, split)) {
    }
  }, io::FormatError);
}

TEST(IoReject, DatasetCorruptRecordMarker) {
  Bytes bytes = slurp(golden_path("corpus.pgds"));
  // The first record marker sits right after header+table+meta. Find it by
  // scanning for "RECD".
  const auto pos = bytes.find("RECD");
  ASSERT_NE(pos, Bytes::npos);
  bytes[pos] = 'X';
  std::istringstream is(bytes, std::ios::binary);
  io::DatasetReader reader(is);
  model::TrainingSample sample;
  io::Split split = io::Split::kTrain;
  EXPECT_THROW(reader.next(sample, split), io::FormatError);
}

TEST(IoReject, DatasetRecordErrorsCarryRecordIndex) {
  // A decode failure deep inside a record body must name which record died:
  // "which sample of the million" is the first thing a corpus-corruption
  // report needs, and a bare FormatError used to lose it.
  Bytes bytes = slurp(golden_path("corpus.pgds"));
  // Poison the split tag of the third record. Each record is framed as
  // "RECD" + u64 body size + body, and the split tag is the body's first
  // byte (offset marker + 4 + 8). Walk frame-by-frame from the first marker
  // (a bytewise search past it could false-match "RECD" inside a body).
  std::size_t marker = bytes.find("RECD");
  ASSERT_NE(marker, Bytes::npos);
  auto u64_at = [&bytes](std::size_t off) {
    std::uint64_t v = 0;
    for (std::size_t i = 0; i < 8; ++i)
      v |= static_cast<std::uint64_t>(static_cast<unsigned char>(bytes[off + i]))
           << (8 * i);
    return v;
  };
  for (int skipped = 0; skipped < 2; ++skipped) {
    marker += 12 + u64_at(marker + 4);
    ASSERT_LT(marker + 12, bytes.size());
    ASSERT_EQ(bytes.compare(marker, 4, "RECD"), 0);
  }
  bytes[marker + 12] = '\xff';

  std::istringstream is(bytes, std::ios::binary);
  io::DatasetReader reader(is);
  model::TrainingSample sample;
  io::Split split = io::Split::kTrain;
  try {
    while (reader.next(sample, split)) {
    }
    FAIL() << "expected FormatError";
  } catch (const io::FormatError& e) {
    EXPECT_NE(std::string(e.what()).find("dataset record 2"),
              std::string::npos)
        << "error message lost the record index: " << e.what();
  }
}

TEST(IoReject, SampleRelationCorruptLocalIndex) {
  // Flip a relation-edge local index deep inside a .psample and verify the
  // validator refuses it (otherwise it would index out of bounds inside the
  // RGAT gather). The CSR in-memory form cannot even represent this
  // corruption (dst_local is re-derived from group_dst on write), so patch
  // the on-disk bytes: walk header + section table to the relations section
  // and poison the first edge record's dst_local field.
  const model::TrainingSample sample =
      io::read_sample_file(golden_path("matvec_cpu.psample"));
  ASSERT_FALSE(sample.graph.relations.relations[0].empty());
  Bytes bytes = slurp(golden_path("matvec_cpu.psample"));

  auto u64_at = [&bytes](std::size_t off) {
    std::uint64_t v = 0;
    for (std::size_t i = 0; i < 8; ++i)
      v |= static_cast<std::uint64_t>(
               static_cast<unsigned char>(bytes[off + i]))
           << (8 * i);
    return v;
  };
  // Header: magic(8) version(2) kind(2) schema(8) section-count(4) = 24,
  // then 3 section-table entries of u32 id + u64 size. Sections follow in
  // table order: meta, features, relations.
  const std::size_t meta_size = u64_at(24 + 4);
  const std::size_t features_size = u64_at(24 + 12 + 4);
  const std::size_t relations_start = 24 + 3 * 12 + meta_size + features_size;
  // Relations payload: u64 num_nodes, u32 num_relations, u64 edge count,
  // then 20-byte edge records (src, dst, src_local, dst_local, gate); the
  // first edge's dst_local sits 12 bytes into its record.
  const std::size_t dst_local_off = relations_start + 8 + 4 + 8 + 12;
  ASSERT_LT(dst_local_off + 4, bytes.size());
  bytes[dst_local_off] = '\xff';
  bytes[dst_local_off + 1] = '\xff';
  bytes[dst_local_off + 2] = '\xff';
  bytes[dst_local_off + 3] = '\x00';

  std::istringstream is(bytes, std::ios::binary);
  EXPECT_THROW(io::read_sample(is), io::FormatError);
}

TEST(IoReject, FormatErrorsAreNotInternalErrors) {
  // Corrupt input must never surface as pg::InternalError (which means
  // "library bug") — the two error channels stay distinct.
  Bytes bytes = slurp(golden_path("matvec_cpu.pgraph"));
  bytes[0] = 'X';
  std::istringstream is(bytes, std::ios::binary);
  try {
    (void)io::read_graph(is);
    FAIL() << "expected FormatError";
  } catch (const io::FormatError&) {
    SUCCEED();
  }
}

TEST(IoReject, MissingFile) {
  EXPECT_THROW(io::read_graph_file("/nonexistent/never.pgraph"),
               io::FormatError);
  EXPECT_THROW(io::probe_file("/nonexistent/never.pgraph"), io::FormatError);
}

TEST(IoProbe, ReportsKindForAllGoldenKinds) {
  EXPECT_EQ(io::probe_file(golden_path("matvec_cpu.pgraph")).kind,
            io::PayloadKind::kGraph);
  EXPECT_EQ(io::probe_file(golden_path("matvec_cpu.psample")).kind,
            io::PayloadKind::kSample);
  EXPECT_EQ(io::probe_file(golden_path("corpus.pgds")).kind,
            io::PayloadKind::kDataset);
}

// --- bulk array primitives ------------------------------------------------

/// Runs `body` over a memory-backed and a stream-backed Source holding the
/// same bytes, so every primitive test covers both backings.
template <class Body>
void for_both_sources(const Bytes& bytes, Body body) {
  {
    io::Source src(bytes.data(), bytes.size());
    SCOPED_TRACE("memory source");
    body(src);
  }
  {
    std::istringstream is(bytes, std::ios::binary);
    io::Source src(is);
    SCOPED_TRACE("stream source");
    body(src);
  }
}

/// nullopt when `read` ran through, else its FormatError text.
template <class Read>
std::optional<std::string> outcome_of(Read read) {
  try {
    (void)read();
  } catch (const io::FormatError& e) {
    return std::string(e.what());
  }
  return std::nullopt;
}

/// The FormatError text `f` throws ("" when it does not throw).
template <class F>
std::string error_of(F f) {
  return outcome_of(f).value_or("");
}

TEST(IoArrays, DecodesKnownLittleEndianBytesBitExactly) {
  // 0x04030201, a quiet NaN with payload 0x1234, a signalling NaN with
  // payload 1, and -0.0f — each stored little-endian.
  const Bytes bytes("\x01\x02\x03\x04"
                    "\x34\x12\xc0\x7f"
                    "\x01\x00\x80\x7f"
                    "\x00\x00\x00\x80",
                    16);
  const std::uint32_t words[4] = {0x04030201u, 0x7fc01234u, 0x7f800001u,
                                  0x80000000u};
  for_both_sources(bytes, [&](io::Source& src) {
    std::uint32_t u[4] = {};
    io::get_u32s(src, u, 4);
    for (int i = 0; i < 4; ++i) EXPECT_EQ(u[i], words[i]) << i;
    EXPECT_EQ(src.consumed(), 16u);
  });
  for_both_sources(bytes, [&](io::Source& src) {
    std::vector<float> f;
    io::get_f32s(src, f, 4);
    ASSERT_EQ(f.size(), 4u);
    for (int i = 0; i < 4; ++i)
      EXPECT_EQ(std::bit_cast<std::uint32_t>(f[i]), words[i]) << i;
  });
  for_both_sources(bytes, [&](io::Source& src) {
    float f[4] = {};
    io::get_f32s(src, f, 4);
    for (int i = 0; i < 4; ++i)
      EXPECT_EQ(std::bit_cast<std::uint32_t>(f[i]), words[i]) << i;
  });
  for_both_sources(bytes, [&](io::Source& src) {
    std::vector<std::uint32_t> u;
    io::get_u32s(src, u, 4);
    EXPECT_EQ(u, std::vector<std::uint32_t>(words, words + 4));
  });
}

TEST(IoArrays, TruncationInsideAnArrayThrowsTruncated) {
  const Bytes bytes(10, '\x07');  // two and a half u32s
  for_both_sources(bytes, [&](io::Source& src) {
    std::vector<std::uint32_t> u;
    const std::string what = error_of([&] { io::get_u32s(src, u, 3); });
    EXPECT_NE(what.find("truncated"), std::string::npos) << what;
  });
  for_both_sources(bytes, [&](io::Source& src) {
    float f[3];
    const std::string what = error_of([&] { io::get_f32s(src, f, 3); });
    EXPECT_NE(what.find("truncated"), std::string::npos) << what;
  });
}

TEST(IoArrays, ArrayPastTheBudgetThrowsSectionOverrun) {
  const Bytes bytes(64, '\x01');
  for_both_sources(bytes, [&](io::Source& src) {
    src.push_budget(8);
    std::vector<std::uint32_t> u;
    const std::string what = error_of([&] { io::get_u32s(src, u, 3); });
    EXPECT_NE(what.find("section overrun"), std::string::npos) << what;
    EXPECT_EQ(src.consumed(), 0u) << "nothing may be read past the check";
  });
  for_both_sources(bytes, [&](io::Source& src) {
    src.push_budget(8);
    float f[3];
    const std::string what = error_of([&] { io::get_f32s(src, f, 3); });
    EXPECT_NE(what.find("section overrun"), std::string::npos) << what;
  });
}

TEST(IoArrays, ZeroLengthArraysAreNoOps) {
  for_both_sources(Bytes(), [&](io::Source& src) {
    std::vector<std::uint32_t> u{1, 2, 3};
    std::vector<float> f{1.0f};
    io::get_u32s(src, u, 0);
    io::get_f32s(src, f, 0);
    io::get_u32s(src, u.data(), 0);
    io::get_f32s(src, f.data(), 0);
    EXPECT_TRUE(u.empty());
    EXPECT_TRUE(f.empty());
    EXPECT_EQ(src.consumed(), 0u);
  });
  io::CountingSink counted;
  io::put_u32s(counted, std::span<const std::uint32_t>());
  io::put_f32s(counted, std::span<const float>());
  EXPECT_EQ(counted.count, 0u);
}

TEST(IoArrays, BulkWritesMatchElementWiseWrites) {
  // Longer than any internal staging buffer, with NaN payloads and -0.0f.
  std::vector<std::uint32_t> words(1031);
  std::vector<float> floats(words.size());
  for (std::size_t i = 0; i < words.size(); ++i) {
    words[i] = static_cast<std::uint32_t>(i * 2654435761u);
    floats[i] = std::bit_cast<float>(words[i] ^ 0x7fc00000u);
  }
  floats[3] = -0.0f;

  auto element_wise = [&](auto& sink) {
    for (const std::uint32_t v : words) io::put_u32(sink, v);
    for (const float v : floats) io::put_f32(sink, v);
  };
  auto bulk = [&](auto& sink) {
    io::put_u32s(sink, words);
    io::put_f32s(sink, floats);
  };

  std::ostringstream a(std::ios::binary), b(std::ios::binary);
  io::StreamSink sink_a{a}, sink_b{b};
  element_wise(sink_a);
  bulk(sink_b);
  EXPECT_EQ(a.str(), b.str());

  io::CountingSink count_a, count_b;
  element_wise(count_a);
  bulk(count_b);
  EXPECT_EQ(count_a.count, count_b.count);
  EXPECT_EQ(count_b.count, a.str().size());

  io::detail::FnvCountingSink fnv_a, fnv_b;
  element_wise(fnv_a);
  bulk(fnv_b);
  EXPECT_EQ(fnv_a.count, fnv_b.count);
  EXPECT_EQ(fnv_a.hash, fnv_b.hash);

  // And the bytes decode back to the same bits.
  const Bytes bytes = b.str();
  io::Source src(bytes.data(), bytes.size());
  std::vector<std::uint32_t> u;
  std::vector<float> f;
  io::get_u32s(src, u, words.size());
  io::get_f32s(src, f, floats.size());
  EXPECT_EQ(u, words);
  for (std::size_t i = 0; i < floats.size(); ++i)
    ASSERT_EQ(std::bit_cast<std::uint32_t>(f[i]),
              std::bit_cast<std::uint32_t>(floats[i]))
        << i;
}

// --- memory vs stream entry points ----------------------------------------

/// Read-only streambuf over caller-owned bytes: stream-mode decodes of
/// every prefix without copying each prefix into an istringstream.
class MemoryBuf : public std::streambuf {
 public:
  MemoryBuf(const char* data, std::size_t size) {
    char* p = const_cast<char*>(data);  // get area only; never written
    setg(p, p, p + size);
  }
};

void expect_bitwise_equal(const model::TrainingSample& a,
                          const model::TrainingSample& b,
                          const std::string& what) {
  SCOPED_TRACE(what);
  EXPECT_EQ(std::bit_cast<std::uint32_t>(a.aux[0]),
            std::bit_cast<std::uint32_t>(b.aux[0]));
  EXPECT_EQ(std::bit_cast<std::uint32_t>(a.aux[1]),
            std::bit_cast<std::uint32_t>(b.aux[1]));
  EXPECT_EQ(std::bit_cast<std::uint64_t>(a.target_scaled),
            std::bit_cast<std::uint64_t>(b.target_scaled));
  EXPECT_EQ(std::bit_cast<std::uint64_t>(a.runtime_us),
            std::bit_cast<std::uint64_t>(b.runtime_us));
  EXPECT_EQ(a.app_id, b.app_id);
  EXPECT_EQ(a.app_name, b.app_name);
  EXPECT_EQ(a.variant, b.variant);

  const tensor::Matrix& fa = a.graph.features;
  const tensor::Matrix& fb = b.graph.features;
  ASSERT_EQ(fa.rows(), fb.rows());
  ASSERT_EQ(fa.cols(), fb.cols());
  for (std::size_t i = 0; i < fa.size(); ++i)
    ASSERT_EQ(std::bit_cast<std::uint32_t>(fa.data()[i]),
              std::bit_cast<std::uint32_t>(fb.data()[i]))
        << "feature " << i;

  const nn::RelationalGraph& ra = a.graph.relations;
  const nn::RelationalGraph& rb = b.graph.relations;
  EXPECT_EQ(ra.num_nodes, rb.num_nodes);
  ASSERT_EQ(ra.relations.size(), rb.relations.size());
  for (std::size_t r = 0; r < ra.relations.size(); ++r) {
    const nn::RelationEdges& x = ra.relations[r];
    const nn::RelationEdges& y = rb.relations[r];
    EXPECT_EQ(x.src_local, y.src_local) << "relation " << r;
    EXPECT_EQ(x.nodes, y.nodes) << "relation " << r;
    EXPECT_EQ(x.group_offsets, y.group_offsets) << "relation " << r;
    EXPECT_EQ(x.group_dst, y.group_dst) << "relation " << r;
    ASSERT_EQ(x.gate.size(), y.gate.size()) << "relation " << r;
    for (std::size_t e = 0; e < x.gate.size(); ++e)
      ASSERT_EQ(std::bit_cast<std::uint32_t>(x.gate[e]),
                std::bit_cast<std::uint32_t>(y.gate[e]))
          << "relation " << r << " gate " << e;
  }
}

std::vector<std::string> golden_sample_names() {
  Manifest manifest;
  read_manifest(manifest);
  std::vector<std::string> names;
  for (const ManifestEntry& entry : manifest.entries)
    names.push_back(entry.name + ".psample");
  return names;
}

TEST(IoEntryPoints, MemoryAndStreamSampleReadersAgreeBitwise) {
  const std::vector<std::string> names = golden_sample_names();
  ASSERT_FALSE(names.empty());
  for (const std::string& name : names) {
    const Bytes bytes = slurp(golden_path(name));
    std::istringstream is(bytes, std::ios::binary);
    const model::TrainingSample streamed = io::read_sample(is);
    const model::TrainingSample mapped =
        io::read_sample(bytes.data(), bytes.size());
    expect_bitwise_equal(streamed, mapped, name);
  }
}

TEST(IoEntryPoints, MemoryAndStreamDatasetRecordsAgreeBitwise) {
  for (const char* name : {"corpus.pgds", "corpus_v2.pgds"}) {
    const Bytes bytes = slurp(golden_path(name));
    std::istringstream is(bytes, std::ios::binary);
    io::DatasetReader reader(is);
    const io::DatasetView view(bytes.data(), bytes.size());
    model::TrainingSample streamed, mapped;
    io::Split split = io::Split::kTrain;
    std::size_t i = 0;
    while (reader.next(streamed, split)) {
      ASSERT_LT(i, view.size()) << name;
      view.decode(i, mapped);
      EXPECT_EQ(view.split(i), split);
      expect_bitwise_equal(streamed, mapped,
                           std::string(name) + " record " + std::to_string(i));
      ++i;
    }
    EXPECT_EQ(i, view.size()) << name;
    EXPECT_GT(i, 0u) << name;
  }
}

TEST(IoEntryPoints, EveryTruncationFailsAlikeOnBothReaders) {
  for (const std::string& name : golden_sample_names()) {
    const Bytes bytes = slurp(golden_path(name));
    for (std::size_t len = 0; len <= bytes.size(); ++len) {
      const auto from_memory = outcome_of(
          [&] { return io::read_sample(bytes.data(), len); });
      MemoryBuf buf(bytes.data(), len);
      std::istream is(&buf);
      const auto from_stream = outcome_of([&] { return io::read_sample(is); });
      ASSERT_EQ(from_memory, from_stream) << name << " prefix " << len;
      // Only the whole file decodes; every proper prefix is rejected.
      ASSERT_EQ(from_memory.has_value(), len < bytes.size())
          << name << " prefix " << len;
    }
  }
}

// --- allocation bound -----------------------------------------------------

/// matvec_cpu.psample with its features section and feature-row count
/// claiming ~1 GiB of floats, then cut a few bytes into that data: a reader
/// that sized the matrix from the count before the bytes arrived would
/// allocate (and zero) about a gigabyte before noticing the truncation.
Bytes oversized_feature_claim() {
  Bytes bytes = slurp(golden_path("matvec_cpu.psample"));
  auto u64_at = [&bytes](std::size_t off) {
    std::uint64_t v = 0;
    for (std::size_t i = 0; i < 8; ++i)
      v |= static_cast<std::uint64_t>(
               static_cast<unsigned char>(bytes[off + i]))
           << (8 * i);
    return v;
  };
  auto put_u64_at = [&bytes](std::size_t off, std::uint64_t v) {
    for (std::size_t i = 0; i < 8; ++i)
      bytes[off + i] = static_cast<char>(v >> (8 * i));
  };
  // Table entries (u32 id + u64 size) start at 24: meta, features, ...
  const std::size_t features_size_off = 24 + 12 + 4;
  const std::size_t meta_size = u64_at(24 + 4);
  const std::size_t features_start = 24 + 3 * 12 + meta_size;
  const std::uint64_t section = (1ull << 30) - 64;  // under kMaxSectionBytes
  const std::uint64_t rows =
      (section - 16) / (model::kNodeFeatureDim * sizeof(float));
  EXPECT_EQ(u64_at(features_start + 8), model::kNodeFeatureDim);
  put_u64_at(features_size_off, section);
  put_u64_at(features_start, rows);  // rows; cols stays kNodeFeatureDim
  bytes.resize(features_start + 16 + 12);  // a few real feature bytes
  return bytes;
}

TEST(IoAllocationBound, CorruptFeatureRowCountCannotSizeTheMatrix) {
  const Bytes bytes = oversized_feature_claim();
  std::istringstream is(bytes, std::ios::binary);
  const std::string streamed = error_of([&] { (void)io::read_sample(is); });
  EXPECT_NE(streamed.find("truncated"), std::string::npos) << streamed;
  const std::string mapped =
      error_of([&] { (void)io::read_sample(bytes.data(), bytes.size()); });
  EXPECT_EQ(mapped, streamed);
}

}  // namespace
}  // namespace pg
