#include "decode/erasure.h"

#include <queue>
#include <utility>

#include "common/check.h"
#include "sim/frame_sim.h"

namespace ftqc::decode {

ErasureAwareDecoder::ErasureAwareDecoder(
    const topo::ToricCode& code, ToricSide side,
    std::shared_ptr<const MatchingStrategy> strategy, ErasureOptions options)
    : code_(code),
      side_(side),
      strategy_(std::move(strategy)),
      options_(options),
      sites_(side == ToricSide::kPlaquette ? code.num_plaquettes()
                                           : code.num_vertices()),
      adjacency_(sites_) {
  FTQC_CHECK(strategy_ != nullptr, "matching strategy required");
  FTQC_CHECK(options_.normal_weight > 0 && options_.erased_weight > 0,
             "edge weights must be positive");
  FTQC_CHECK(options_.erased_weight <= options_.normal_weight,
             "heralds must discount, not penalize");
  for (uint32_t e = 0; e < code_.num_qubits(); ++e) {
    const auto [u, v] = side == ToricSide::kPlaquette
                            ? code_.edge_plaquettes(e)
                            : code_.edge_vertices(e);
    adjacency_[u].push_back({e, static_cast<uint32_t>(v)});
    adjacency_[v].push_back({e, static_cast<uint32_t>(u)});
  }
}

void ErasureAwareDecoder::peel(gf2::BitVec& defects,
                               const gf2::BitVec& heralds,
                               gf2::BitVec& correction) const {
  // Spanning forest of the heralded subgraph, recorded in DFS preorder so
  // that reversing the order visits every node after its whole subtree —
  // exactly leaf-first peeling without an explicit leaf queue.
  std::vector<int64_t> parent_edge(sites_, -1);
  std::vector<uint32_t> parent_site(sites_, 0);
  std::vector<uint8_t> visited(sites_, 0);
  std::vector<uint32_t> order;
  order.reserve(sites_);
  std::vector<uint32_t> stack;
  for (uint32_t root = 0; root < sites_; ++root) {
    if (visited[root]) continue;
    visited[root] = 1;
    stack.push_back(root);
    while (!stack.empty()) {
      const uint32_t u = stack.back();
      stack.pop_back();
      order.push_back(u);
      for (const Incidence& inc : adjacency_[u]) {
        if (!heralds.get(inc.edge) || visited[inc.site]) continue;
        visited[inc.site] = 1;
        parent_edge[inc.site] = inc.edge;
        parent_site[inc.site] = u;
        stack.push_back(inc.site);
      }
    }
  }
  // Peel: a defect on a non-root node rides its tree edge toward the root.
  // Even-parity clusters annihilate completely; odd ones leave one defect at
  // the root for the matching stage. Non-tree erased edges are simply unused
  // — any correction supported on the spanning forest already matches the
  // cluster's syndrome.
  for (size_t i = order.size(); i-- > 0;) {
    const uint32_t v = order[i];
    if (parent_edge[v] < 0) continue;
    if (!defects.get(v)) continue;
    correction.flip(static_cast<size_t>(parent_edge[v]));
    defects.flip(v);
    defects.flip(parent_site[v]);
  }
}

gf2::BitVec ErasureAwareDecoder::decode(const gf2::BitVec& syndrome,
                                        const gf2::BitVec& heralds) const {
  FTQC_CHECK(syndrome.size() == sites_, "syndrome size mismatch");
  const bool aware = !heralds.empty();
  if (aware) {
    FTQC_CHECK(heralds.size() == code_.num_qubits(),
               "herald vector must cover every data qubit");
  }

  gf2::BitVec correction(code_.num_qubits());
  gf2::BitVec defects = syndrome;
  if (aware && heralds.any()) peel(defects, heralds, correction);

  std::vector<uint32_t> defect_site;
  for (size_t s = defects.first_set(); s < sites_;
       s = defects.next_set(s + 1)) {
    defect_site.push_back(static_cast<uint32_t>(s));
  }
  if (defect_site.empty()) return correction;
  FTQC_CHECK(defect_site.size() % 2 == 0,
             "torus defects come in pairs (peeling preserves parity)");

  // Dijkstra from every remaining defect over the weighted site graph,
  // keeping each search tree for path reconstruction. The defect count is
  // tiny next to the lattice, so all-pairs through per-source searches is
  // the cheap direction.
  const size_t n = defect_site.size();
  constexpr size_t kInf = SIZE_MAX;
  std::vector<std::vector<size_t>> dist(n);
  std::vector<std::vector<uint32_t>> via_edge(n);
  std::vector<std::vector<uint32_t>> via_site(n);
  const auto edge_weight = [&](uint32_t e) {
    return aware && heralds.get(e) ? options_.erased_weight
                                   : options_.normal_weight;
  };
  using QueueEntry = std::pair<size_t, uint32_t>;  // (distance, site)
  for (size_t i = 0; i < n; ++i) {
    dist[i].assign(sites_, kInf);
    via_edge[i].assign(sites_, 0);
    via_site[i].assign(sites_, 0);
    std::priority_queue<QueueEntry, std::vector<QueueEntry>,
                        std::greater<QueueEntry>>
        frontier;
    dist[i][defect_site[i]] = 0;
    frontier.push({0, defect_site[i]});
    while (!frontier.empty()) {
      const auto [d, u] = frontier.top();
      frontier.pop();
      if (d != dist[i][u]) continue;  // stale entry
      for (const Incidence& inc : adjacency_[u]) {
        const size_t nd = d + edge_weight(inc.edge);
        if (nd >= dist[i][inc.site]) continue;
        dist[i][inc.site] = nd;
        via_edge[i][inc.site] = inc.edge;
        via_site[i][inc.site] = u;
        frontier.push({nd, inc.site});
      }
    }
  }

  std::vector<size_t> weights(n * n, 0);
  for (size_t i = 0; i < n; ++i) {
    for (size_t j = i + 1; j < n; ++j) {
      weights[i * n + j] = dist[i][defect_site[j]];
    }
  }
  const auto matches = strategy_->match(n, weights);
  for (const Match& m : matches) {
    // Walk b back to a through a's shortest-path tree, toggling each crossed
    // edge. Unlike toggle_dual_path/toggle_primal_path this follows the
    // weighted route, which is what lets the correction thread the erasure.
    uint32_t cur = defect_site[m.b];
    const uint32_t goal = defect_site[m.a];
    while (cur != goal) {
      correction.flip(via_edge[m.a][cur]);
      cur = via_site[m.a][cur];
    }
  }
  return correction;
}

ErasureMemoryResult run_erasure_memory(const ErasureAwareDecoder& decoder,
                                       const sim::NoiseParams& params,
                                       uint64_t seed) {
  const topo::ToricCode& code = decoder.code();
  const bool plaquette = decoder.side() == ToricSide::kPlaquette;
  const size_t nq = code.num_qubits();

  // Drive the actual sim channels (not a hand-rolled sampler) so the herald
  // bits the decoder consumes are the ones FrameSim::erase_error records.
  sim::FrameSim sim(nq, seed);
  const double eps = params.eps_store;
  for (uint32_t q = 0; q < nq; ++q) {
    if (params.is_biased()) {
      sim.pauli_channel1(q, eps * params.frac_x(), eps * params.frac_y(),
                         eps * params.frac_z());
    } else {
      sim.depolarize1(q, eps);
    }
    sim.erase_error(q, params.p_erase);
  }

  gf2::BitVec errors(nq);
  gf2::BitVec heralds(nq);
  ErasureMemoryResult result;
  for (uint32_t q = 0; q < nq; ++q) {
    errors.set(q, plaquette ? sim.x_frame().get(q) : sim.z_frame().get(q));
    if (sim.is_erased(q)) {
      heralds.set(q, true);
      ++result.num_heralds;
    }
  }
  const gf2::BitVec syndrome = plaquette ? code.plaquette_syndrome(errors)
                                         : code.star_syndrome(errors);

  const auto verdict = [&](const gf2::BitVec& h, bool* fail, bool* cleared) {
    gf2::BitVec residual = errors;
    residual ^= decoder.decode(syndrome, h);
    const gf2::BitVec check = plaquette ? code.plaquette_syndrome(residual)
                                        : code.star_syndrome(residual);
    *cleared = !check.any();
    const auto [f1, f2] = plaquette ? code.logical_x_flips(residual)
                                    : code.logical_z_flips(residual);
    *fail = f1 || f2;
  };
  verdict(gf2::BitVec(), &result.blind_fail, &result.blind_cleared);
  verdict(heralds, &result.aware_fail, &result.aware_cleared);
  return result;
}

}  // namespace ftqc::decode
