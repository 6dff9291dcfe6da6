// Tests for the tensor::Workspace arena and the zero-allocation guarantee
// of the workspace-backed model hot path: slot reuse and zeroing semantics,
// grow-only statistics bounded by the largest pass whatever the mix of
// shapes, bitwise determinism of repeated passes through one (or several)
// workspaces, and a global-operator-new audit proving that a warmed-up
// predict/accumulate_gradients never touches the heap.
#include <gtest/gtest.h>

#include <array>
#include <atomic>
#include <cstdlib>
#include <cstring>
#include <new>

#include "frontend/parser.hpp"
#include "graph/builder.hpp"
#include "model/encoding.hpp"
#include "model/paragraph_model.hpp"
#include "tensor/workspace.hpp"

// ----------------------------------------------------------------------
// Global allocation audit. Replacing the global operator new/delete pair
// lets the steady-state tests assert "zero heap allocations", not merely
// "zero workspace growth". The counter only ever increments, so warm-up
// and gtest bookkeeping between snapshots are harmless.
namespace {
std::atomic<std::size_t> g_allocation_count{0};
}  // namespace

// Every throwing/nothrow new and delete variant is replaced so each
// allocation and deallocation routes through the same malloc/free pair —
// a partial replacement trips ASan's alloc-dealloc-mismatch check.
void* operator new(std::size_t size) {
  g_allocation_count.fetch_add(1, std::memory_order_relaxed);
  if (void* p = std::malloc(size)) return p;
  throw std::bad_alloc();
}
void* operator new[](std::size_t size) {
  g_allocation_count.fetch_add(1, std::memory_order_relaxed);
  if (void* p = std::malloc(size)) return p;
  throw std::bad_alloc();
}
void* operator new(std::size_t size, const std::nothrow_t&) noexcept {
  g_allocation_count.fetch_add(1, std::memory_order_relaxed);
  return std::malloc(size);
}
void* operator new[](std::size_t size, const std::nothrow_t&) noexcept {
  g_allocation_count.fetch_add(1, std::memory_order_relaxed);
  return std::malloc(size);
}
void operator delete(void* p) noexcept { std::free(p); }
void operator delete[](void* p) noexcept { std::free(p); }
void operator delete(void* p, std::size_t) noexcept { std::free(p); }
void operator delete[](void* p, std::size_t) noexcept { std::free(p); }
void operator delete(void* p, const std::nothrow_t&) noexcept { std::free(p); }
void operator delete[](void* p, const std::nothrow_t&) noexcept { std::free(p); }

namespace pg::tensor {
namespace {

// ------------------------------------------------------------- arena ---

TEST(Workspace, AcquireReturnsZeroFilledShape) {
  Workspace ws;
  Matrix& m = ws.acquire(3, 4);
  EXPECT_EQ(m.rows(), 3u);
  EXPECT_EQ(m.cols(), 4u);
  for (float v : m.data()) EXPECT_EQ(v, 0.0f);
}

TEST(Workspace, SameShapeAcquiresAreDistinctUntilReset) {
  Workspace ws;
  Matrix& a = ws.acquire(2, 2);
  Matrix& b = ws.acquire(2, 2);
  EXPECT_NE(&a, &b);
  a(0, 0) = 1.0f;
  EXPECT_EQ(b(0, 0), 0.0f);
}

TEST(Workspace, ResetReusesSlotsInAcquisitionOrder) {
  Workspace ws;
  Matrix& a = ws.acquire(2, 3);
  Matrix& b = ws.acquire(2, 3);
  a(0, 0) = 7.0f;
  b(0, 0) = 9.0f;
  ws.reset();
  Matrix& a2 = ws.acquire(2, 3);
  Matrix& b2 = ws.acquire(2, 3);
  EXPECT_EQ(&a2, &a);
  EXPECT_EQ(&b2, &b);
  // Re-handed-out slots are scrubbed.
  EXPECT_EQ(a2(0, 0), 0.0f);
  EXPECT_EQ(b2(0, 0), 0.0f);
}

TEST(Workspace, GrowOnlyStatistics) {
  Workspace ws;
  EXPECT_EQ(ws.num_slots(), 0u);
  (void)ws.acquire(4, 4);
  (void)ws.acquire(4, 4);
  (void)ws.acquire(1, 8);
  EXPECT_EQ(ws.num_slots(), 3u);
  EXPECT_EQ(ws.bytes_reserved(), (16u + 16u + 8u) * sizeof(float));
  ws.reset();
  (void)ws.acquire(4, 4);
  (void)ws.acquire(1, 8);
  EXPECT_EQ(ws.num_slots(), 3u);  // steady state: nothing new
  EXPECT_EQ(ws.num_acquires(), 5u);
}

TEST(Workspace, VariedShapesStopGrowingAtTheLargestPass) {
  Workspace ws;
  auto pass = [&ws](std::size_t r) {
    ws.reset();
    (void)ws.acquire(r, 24);
    (void)ws.acquire(r, 24);
    (void)ws.acquire_uninit(r, 1);
  };
  for (std::size_t r = 1; r <= 200; ++r) pass(r);
  EXPECT_EQ(ws.num_slots(), 3u);
  EXPECT_EQ(ws.bytes_reserved(), (2u * 200u * 24u + 200u) * sizeof(float));

  const std::size_t allocations_before = g_allocation_count.load();
  for (std::size_t r = 200; r >= 1; --r) pass(r);
  const std::size_t allocations_after = g_allocation_count.load();
  EXPECT_EQ(allocations_after, allocations_before)
      << "passes no larger than an earlier one touched the heap";
  EXPECT_EQ(ws.num_slots(), 3u);
}

TEST(Workspace, ZeroSizedAcquireIsAllowed) {
  Workspace ws;
  Matrix& m = ws.acquire(1, 0);
  EXPECT_EQ(m.rows(), 1u);
  EXPECT_EQ(m.cols(), 0u);
  EXPECT_TRUE(m.empty());
}

// ----------------------------------------------------- model hot path ---

model::EncodedGraph encode_source(const char* source) {
  auto r = frontend::parse_source(source);
  EXPECT_TRUE(r.ok());
  const auto g = graph::build_graph(r.root(), {});
  return model::encode_graph(g, 40.0);
}

model::EncodedGraph encoded_small() {
  return encode_source(R"(
    void f(void) {
      for (int i = 0; i < 40; i++) {
        double x = 1.0;
      }
    }
  )");
}

model::EncodedGraph encoded_larger() {
  return encode_source(R"(
    void g(double* a, double* b, int n) {
      for (int i = 0; i < 40; i++) {
        for (int j = 0; j < 40; j++) {
          if (a[j] > 0.0) {
            b[i] = b[i] + a[j] * 2.0;
          }
        }
      }
    }
  )");
}

TEST(WorkspaceModel, RepeatedPredictThroughOneWorkspaceIsBitwiseIdentical) {
  const auto enc = encoded_small();
  model::ParaGraphModel m(model::ModelConfig{.hidden_dim = 8, .seed = 3});
  const std::array<float, 2> aux = {0.4f, 0.6f};
  Workspace ws;
  const double first = m.predict(enc, aux, ws);
  for (int i = 0; i < 5; ++i) EXPECT_EQ(m.predict(enc, aux, ws), first);
}

TEST(WorkspaceModel, PredictIsIndependentOfWorkspaceHistory) {
  const auto enc = encoded_small();
  model::ParaGraphModel m(model::ModelConfig{.hidden_dim = 8, .seed = 3});
  const std::array<float, 2> aux = {0.4f, 0.6f};
  Workspace fresh;
  Workspace dirty;
  // Pollute `dirty` with a differently-shaped pass first.
  (void)m.predict(enc, std::array<float, 2>{0.9f, 0.1f}, dirty);
  EXPECT_EQ(m.predict(enc, aux, dirty), m.predict(enc, aux, fresh));
}

TEST(WorkspaceModel, PredictSteadyStatePerformsZeroHeapAllocations) {
  const auto enc = encoded_small();
  model::ParaGraphModel m(model::ModelConfig{.hidden_dim = 8, .seed = 5});
  const std::array<float, 2> aux = {0.3f, 0.7f};
  Workspace ws;
  (void)m.predict(enc, aux, ws);  // warm-up: arena takes all its slots here
  const std::size_t slots = ws.num_slots();
  const std::size_t bytes = ws.bytes_reserved();

  const std::size_t allocations_before = g_allocation_count.load();
  double sum = 0.0;
  for (int i = 0; i < 10; ++i) sum += m.predict(enc, aux, ws);
  const std::size_t allocations_after = g_allocation_count.load();

  EXPECT_NE(sum, 0.0);  // keep the loop observable
  EXPECT_EQ(allocations_after, allocations_before)
      << "steady-state predict touched the heap";
  EXPECT_EQ(ws.num_slots(), slots) << "workspace grew after warm-up";
  EXPECT_EQ(ws.bytes_reserved(), bytes);
}

TEST(WorkspaceModel, GradientSteadyStatePerformsZeroHeapAllocations) {
  const auto enc = encoded_small();
  model::ParaGraphModel m(model::ModelConfig{.hidden_dim = 8, .seed = 5});
  const std::array<float, 2> aux = {0.3f, 0.7f};
  std::vector<Matrix> grads;
  for (auto* p : m.parameters()) grads.emplace_back(p->rows(), p->cols());
  Workspace ws;
  (void)m.accumulate_gradients(enc, aux, 0.5, 1.0, grads, ws);  // warm-up
  const std::size_t slots = ws.num_slots();

  const std::size_t allocations_before = g_allocation_count.load();
  for (int i = 0; i < 5; ++i)
    (void)m.accumulate_gradients(enc, aux, 0.5, 1.0, grads, ws);
  const std::size_t allocations_after = g_allocation_count.load();

  EXPECT_EQ(allocations_after, allocations_before)
      << "steady-state accumulate_gradients touched the heap";
  EXPECT_EQ(ws.num_slots(), slots);
}

TEST(WorkspaceModel, MixedShapesMatchFreshWorkspacesAndStopAllocating) {
  const std::array<model::EncodedGraph, 2> graphs = {encoded_small(),
                                                     encoded_larger()};
  ASSERT_NE(graphs[0].features.rows(), graphs[1].features.rows());
  model::ParaGraphModel m(model::ModelConfig{.hidden_dim = 8, .seed = 5});
  const std::array<float, 2> aux = {0.3f, 0.7f};
  auto zero_grads = [&m] {
    std::vector<Matrix> grads;
    for (auto* p : m.parameters()) grads.emplace_back(p->rows(), p->cols());
    return grads;
  };

  // Reference: every call on a fresh Workspace.
  std::array<double, 2> want_pred{};
  std::array<double, 2> want_grad_pred{};
  std::array<std::vector<Matrix>, 2> want_grads;
  for (std::size_t i = 0; i < graphs.size(); ++i) {
    Workspace fresh_predict;
    want_pred[i] = m.predict(graphs[i], aux, fresh_predict);
    Workspace fresh_gradient;
    want_grads[i] = zero_grads();
    want_grad_pred[i] = m.accumulate_gradients(graphs[i], aux, 0.5, 1.0,
                                               want_grads[i], fresh_gradient);
  }

  // One round sends both graphs alternately through `ws`, each through
  // predict then accumulate_gradients; returns how many results differ
  // bitwise from the fresh-workspace reference. Allocation-free itself.
  Workspace ws;
  std::vector<Matrix> grads = zero_grads();
  auto round = [&] {
    std::size_t mismatches = 0;
    for (std::size_t i = 0; i < graphs.size(); ++i) {
      const double pred = m.predict(graphs[i], aux, ws);
      if (std::memcmp(&pred, &want_pred[i], sizeof pred) != 0) ++mismatches;
      for (auto& g : grads) g.zero();
      const double grad_pred =
          m.accumulate_gradients(graphs[i], aux, 0.5, 1.0, grads, ws);
      if (std::memcmp(&grad_pred, &want_grad_pred[i], sizeof grad_pred) != 0)
        ++mismatches;
      for (std::size_t p = 0; p < grads.size(); ++p)
        if (std::memcmp(grads[p].data().data(),
                        want_grads[i][p].data().data(),
                        grads[p].size() * sizeof(float)) != 0)
          ++mismatches;
    }
    return mismatches;
  };

  EXPECT_EQ(round(), 0u) << "warm-up round";
  const std::size_t slots = ws.num_slots();
  const std::size_t bytes = ws.bytes_reserved();

  const std::size_t allocations_before = g_allocation_count.load();
  std::size_t mismatches = 0;
  for (int r = 0; r < 4; ++r) mismatches += round();
  const std::size_t allocations_after = g_allocation_count.load();

  EXPECT_EQ(mismatches, 0u);
  EXPECT_EQ(allocations_after, allocations_before)
      << "warmed-up mixed-shape passes touched the heap";
  EXPECT_EQ(ws.num_slots(), slots);
  EXPECT_EQ(ws.bytes_reserved(), bytes);
}

TEST(WorkspaceModel, WorkspaceOverloadMatchesConvenienceOverload) {
  const auto enc = encoded_small();
  model::ParaGraphModel m(model::ModelConfig{.hidden_dim = 8, .seed = 7});
  const std::array<float, 2> aux = {0.2f, 0.8f};
  Workspace ws;
  EXPECT_EQ(m.predict(enc, aux, ws), m.predict(enc, aux));
}

}  // namespace
}  // namespace pg::tensor
