#include "decode/blossom.h"

#include <algorithm>
#include <cstdint>
#include <limits>
#include <span>
#include <vector>

#include "common/check.h"

namespace ftqc::decode {
namespace {

// Primal-dual maximum-weight general matching (Edmonds' blossom algorithm,
// the classic O(n³) formulation with an explicit contraction stack). Vertices
// are 1-indexed; ids n+1..2n name contracted blossoms, 0 is the "unmatched"
// sentinel. Every edge keeps its ORIGINAL endpoints (u, v) even when stored
// in a blossom's adjacency row, so expanding a contraction can recover which
// inner vertex the edge actually touches.
//
// Dual bookkeeping follows the standard half-integral trick: edge weights are
// doubled inside the slack arithmetic (slack(e) = lab[u] + lab[v] - 2 w(e)),
// vertex duals move by d and blossom duals by 2d per dual adjustment, so all
// quantities stay integral for integral weights.
//
// Storage: an edge between two original vertices is never written after
// set-up, so it is read straight from the complement weight matrix. Only
// contracted blossoms store an adjacency row (one Edge per id); the entry
// from an original vertex x to a blossom b is row b's entry x reversed, and
// blossom-blossom entries are kept in both rows. One instance lives per
// thread and keeps every buffer across solves, so a steady-state solve
// allocates nothing.
//
// Most phases augment before any dual adjustment, so each phase first runs
// over tight edges alone and makes no slack offers (see grow_forest).
class BlossomSolver {
 public:
  // Runs augmentation phases to exhaustion and returns the matched partner of
  // every original vertex (1-indexed; FTQC_CHECKed perfect by the caller).
  // Reads only the strict upper triangle of the row-major n x n `weights`.
  const std::vector<int>& solve(size_t n, std::span<const size_t> weights) {
    reset(n, weights);
    while (grow_forest()) {
    }
    return match_;
  }

 private:
  struct Edge {
    int u = 0;
    int v = 0;
    int64_t w = 0;
  };

  static constexpr int64_t kInf = std::numeric_limits<int64_t>::max() / 4;

  // The complement transform w' = w_max + 1 - w turns minimization into
  // maximization with all-positive weights, so on the complete defect graph
  // the maximum-weight matching is perfect and minimizes the original sum.
  void reset(size_t n, std::span<const size_t> weights) {
    constexpr size_t kMaxWeight = size_t{1} << 40;
    size_t w_max = 0;
    size_t w_min = std::numeric_limits<size_t>::max();
    for (size_t i = 0; i < n; ++i) {
      for (size_t j = i + 1; j < n; ++j) {
        const size_t d = weights[i * n + j];
        w_max = std::max(w_max, d);
        w_min = std::min(w_min, d);
      }
    }
    FTQC_CHECK(w_max < kMaxWeight,
               "metric too large for exact matching duals");
    const int64_t flip = static_cast<int64_t>(w_max) + 1;

    n_ = static_cast<int>(n);
    n_x_ = n_;
    ids_ = 2 * n_ + 1;
    stride_ = static_cast<size_t>(n_) + 1;
    const size_t ids = static_cast<size_t>(ids_);
    weight_.resize(stride_ * stride_);
    for (int u = 1; u <= n_; ++u) {
      int64_t* row = &weight_[static_cast<size_t>(u) * stride_];
      row[u] = 0;
      for (int v = u + 1; v <= n_; ++v) {
        const int64_t w =
            flip - static_cast<int64_t>(
                       weights[static_cast<size_t>(u - 1) * n +
                               static_cast<size_t>(v - 1)]);
        row[v] = w;
        weight_[static_cast<size_t>(v) * stride_ + static_cast<size_t>(u)] =
            w;
      }
    }
    for (auto* buffer : {&match_, &slack_, &st_, &pa_, &vis_}) {
      buffer->assign(ids, 0);
    }
    s_.assign(ids, -1);
    lab_.assign(ids, 0);
    slack_val_.assign(ids, 0);
    // Every vertex dual starts at the largest complement weight.
    const int64_t lab0 = flip - static_cast<int64_t>(w_min);
    for (int u = 1; u <= n_; ++u) {
      st_[u] = u;
      lab_[u] = lab0;
    }
    vis_stamp_ = 0;
    tight_epoch_.assign(stride_, 0);
    label_epoch_ = 1;
    // Room for the up to n blossom ids n+1..2n; buffers only ever grow.
    tight_.resize(std::max(tight_.size(), stride_ * stride_));
    tight_len_.resize(std::max(tight_len_.size(), stride_));
    rows_.resize(std::max(rows_.size(), n * ids));
    flower_from_.resize(std::max(flower_from_.size(), n * stride_));
    flower_.resize(std::max(flower_.size(), n));
  }

  [[nodiscard]] int64_t weight(int u, int v) const {
    return weight_[static_cast<size_t>(u) * stride_ + static_cast<size_t>(v)];
  }
  // Adjacency row, inner-vertex map and cycle of blossom b (n < b < ids_).
  Edge* row(int b) {
    return &rows_[static_cast<size_t>(b - n_ - 1) *
                  static_cast<size_t>(ids_)];
  }
  int* flower_from(int b) {
    return &flower_from_[static_cast<size_t>(b - n_ - 1) * stride_];
  }
  std::vector<int>& flower(int b) {
    return flower_[static_cast<size_t>(b - n_ - 1)];
  }

  // The edge between ids x and y, with its original endpoints.
  [[nodiscard]] Edge edge(int x, int y) {
    if (x > n_) return row(x)[y];
    if (y > n_) {
      const Edge& e = row(y)[x];
      return {e.v, e.u, e.w};
    }
    return {x, y, weight(x, y)};
  }

  [[nodiscard]] int64_t edge_slack(const Edge& e) const {
    return lab_[e.u] + lab_[e.v] - 2 * e.w;
  }

  // Slack of the edge from original vertex u to id x (either orientation of
  // an edge has the same slack).
  [[nodiscard]] int64_t slack_from(int u, int x) {
    if (x > n_) return edge_slack(row(x)[u]);
    return lab_[u] + lab_[x] - 2 * weight(u, x);
  }

  // The original vertices joined to original vertex u by a tight edge,
  // ascending. Labels move only in a dual adjustment, which starts a new
  // label epoch, so a list is built once per epoch.
  std::span<const int> tight_neighbors(int u) {
    int* list = &tight_[static_cast<size_t>(u) * stride_];
    if (tight_epoch_[u] != label_epoch_) {
      tight_epoch_[u] = label_epoch_;
      const int64_t lab_u = lab_[u];
      const int64_t* w_u = &weight_[static_cast<size_t>(u) * stride_];
      int count = 0;
      for (int v = 1; v <= n_; ++v) {
        list[count] = v;
        count += lab_u + lab_[v] == 2 * w_u[v] ? 1 : 0;
      }
      tight_len_[u] = count;
    }
    return {list, static_cast<size_t>(tight_len_[u])};
  }

  // Offers original vertex u, whose least-slack edge to x has slack
  // `slack`, as x's least-slack S-neighbor. The incumbent's slack is the
  // stored slack_val_[x], not recomputed.
  void update_slack(int u, int x, int64_t slack) {
    if (slack_[x] == 0 || slack < slack_val_[x]) {
      slack_[x] = u;
      slack_val_[x] = slack;
    }
  }

  void set_slack(int x) {
    slack_[x] = 0;
    const bool blossom = x > n_;
    for (int u = 1; u <= n_; ++u) {
      const int64_t w = blossom ? row(x)[u].w : weight(u, x);
      if (w > 0 && st_[u] != x && s_[st_[u]] == 0) {
        update_slack(u, x, slack_from(u, x));
      }
    }
  }

  void queue_push(int x) {
    if (x <= n_) {
      queue_.push_back(x);
    } else {
      for (const int inner : flower(x)) queue_push(inner);
    }
  }

  void set_st(int x, int b) {
    st_[x] = b;
    if (x > n_) {
      for (const int inner : flower(x)) set_st(inner, b);
    }
  }

  // Rotation offset of inner vertex `xr` inside blossom b's cycle such that
  // the even-length alternating segment starts at the blossom's base; odd
  // positions flip the stored cycle orientation first.
  int get_pr(int b, int xr) {
    auto& cycle = flower(b);
    const int pr = static_cast<int>(
        std::find(cycle.begin(), cycle.end(), xr) - cycle.begin());
    if (pr % 2 == 1) {
      std::reverse(cycle.begin() + 1, cycle.end());
      return static_cast<int>(cycle.size()) - pr;
    }
    return pr;
  }

  void set_match(int u, int v) {
    const Edge e = edge(u, v);
    match_[u] = e.v;
    if (u <= n_) return;
    const int xr = flower_from(u)[e.u];
    const int pr = get_pr(u, xr);
    auto& cycle = flower(u);
    for (int i = 0; i < pr; ++i) set_match(cycle[i], cycle[i ^ 1]);
    set_match(xr, v);
    std::rotate(cycle.begin(), cycle.begin() + pr, cycle.end());
  }

  void augment(int u, int v) {
    for (;;) {
      const int xnv = st_[match_[u]];
      set_match(u, v);
      if (xnv == 0) return;
      set_match(xnv, st_[pa_[xnv]]);
      u = st_[pa_[xnv]];
      v = xnv;
    }
  }

  int get_lca(int u, int v) {
    for (++vis_stamp_; u != 0 || v != 0; std::swap(u, v)) {
      if (u == 0) continue;
      if (vis_[u] == vis_stamp_) return u;
      vis_[u] = vis_stamp_;
      u = st_[match_[u]];
      if (u != 0) u = st_[pa_[u]];
    }
    return 0;
  }

  void add_blossom(int u, int lca, int v) {
    int b = n_ + 1;
    while (b <= n_x_ && st_[b] != 0) ++b;
    if (b > n_x_) ++n_x_;
    FTQC_CHECK(b < ids_, "blossom id overflow");
    lab_[b] = 0;
    s_[b] = 0;
    match_[b] = match_[lca];
    auto& cycle = flower(b);
    cycle.clear();
    cycle.push_back(lca);
    for (int x = u, y = 0; x != lca; x = st_[pa_[y]]) {
      cycle.push_back(x);
      cycle.push_back(y = st_[match_[x]]);
      queue_push(y);
    }
    std::reverse(cycle.begin() + 1, cycle.end());
    for (int x = v, y = 0; x != lca; x = st_[pa_[y]]) {
      cycle.push_back(x);
      cycle.push_back(y = st_[match_[x]]);
      queue_push(y);
    }
    set_st(b, b);
    Edge* row_b = row(b);
    for (int x = 1; x <= n_x_; ++x) {
      row_b[x].w = 0;
      if (x > n_) row(x)[b].w = 0;
    }
    int* from_b = flower_from(b);
    std::fill(from_b + 1, from_b + stride_, 0);
    // The blossom's adjacency row keeps, per outer vertex, the least-slack
    // edge leaving any inner vertex (original endpoints preserved).
    for (const int xs : cycle) {
      for (int x = 1; x <= n_x_; ++x) {
        const Edge e = edge(xs, x);
        if (row_b[x].w == 0 || edge_slack(e) < edge_slack(row_b[x])) {
          row_b[x] = e;
          if (x > n_) row(x)[b] = edge(x, xs);
        }
      }
      if (xs <= n_) {
        from_b[xs] = xs;
      } else {
        const int* from_xs = flower_from(xs);
        for (int x = 1; x <= n_; ++x) {
          if (from_xs[x] != 0) from_b[x] = xs;
        }
      }
    }
    if (offering_) {
      set_slack(b);
    } else {
      contracted_.push_back(b);
    }
  }

  // A T-blossom whose dual hit zero no longer pays to stay contracted; its
  // cycle re-enters the forest with alternating S/T roles along the stem.
  void expand_blossom(int b) {
    auto& cycle = flower(b);
    for (const int inner : cycle) set_st(inner, inner);
    const int xr = flower_from(b)[row(b)[pa_[b]].u];
    const int pr = get_pr(b, xr);
    for (int i = 0; i < pr; i += 2) {
      const int xs = cycle[static_cast<size_t>(i)];
      const int xns = cycle[static_cast<size_t>(i) + 1];
      pa_[xs] = edge(xns, xs).u;
      s_[xs] = 1;
      s_[xns] = 0;
      slack_[xs] = 0;
      set_slack(xns);
      queue_push(xns);
    }
    s_[xr] = 1;
    pa_[xr] = pa_[b];
    for (size_t i = static_cast<size_t>(pr) + 1; i < cycle.size(); ++i) {
      s_[cycle[i]] = -1;
      set_slack(cycle[i]);
    }
    st_[b] = 0;
  }

  // Processes one tight edge out of the S-forest: grows the tree through a
  // matched T-vertex, contracts an odd cycle, or augments (returns true).
  bool on_found_edge(const Edge& e) {
    const int u = st_[e.u];
    const int v = st_[e.v];
    if (s_[v] == -1) {
      pa_[v] = e.u;
      s_[v] = 1;
      const int nu = st_[match_[v]];
      slack_[v] = slack_[nu] = 0;
      s_[nu] = 0;
      queue_push(nu);
    } else if (s_[v] == 0) {
      const int lca = get_lca(u, v);
      if (lca == 0) {
        augment(u, v);
        augment(v, u);
        return true;
      }
      add_blossom(u, lca, v);
    }
    return false;
  }

  // Labels every free surface S and queues its vertices, clearing every
  // stored slack; false when no surface is free.
  bool start_phase() {
    std::fill(s_.begin(), s_.end(), -1);
    std::fill(slack_.begin(), slack_.end(), 0);
    queue_.clear();
    for (int x = 1; x <= n_x_; ++x) {
      if (st_[x] == x && match_[x] == 0) {
        pa_[x] = 0;
        s_[x] = 0;
        queue_push(x);
      }
    }
    return !queue_.empty();
  }

  // The phase's BFS over tight edges only, with the queue, scan order and
  // on_found_edge calls of grow_with_offers' first pass but none of its
  // slack offers. True when it augments, false when the queue drains.
  bool grow_tight() {
    for (size_t head = 0; head < queue_.size(); ++head) {
      const int u = queue_[head];
      int st_u = st_[u];
      if (s_[st_u] == 1) continue;
      const int64_t* w_u = &weight_[static_cast<size_t>(u) * stride_];
      for (const int v : tight_neighbors(u)) {
        if (st_[v] == st_u) continue;
        if (on_found_edge({u, v, w_u[v]})) return true;
        st_u = st_[u];
      }
    }
    return false;
  }

  // One phase: an augmenting path is found (true) or the duals prove no
  // further augmentation can raise the total weight (false). No structural
  // step reads a stored slack before the first dual adjustment, so a tight
  // pass that augments leaves the state the offering loop would. One that
  // drains is rolled back, newest contraction first, and the phase reruns
  // with offers; the rerun takes the same steps in the same order and writes
  // every other entry the pass wrote (pa_, a re-created id's match_, lab_,
  // rows and cycle) before it reads it.
  bool grow_forest() {
    const int n_x = n_x_;
    if (!start_phase()) return false;
    offering_ = false;
    contracted_.clear();
    const bool augmented = grow_tight();
    offering_ = true;
    if (augmented) return true;
    for (auto b = contracted_.rbegin(); b != contracted_.rend(); ++b) {
      for (const int inner : flower(*b)) set_st(inner, inner);
      st_[*b] = 0;
    }
    n_x_ = n_x;
    start_phase();
    return grow_with_offers();
  }

  // BFS the S-forest over tight edges, offering every other edge's slack
  // and adjusting duals when it stalls.
  bool grow_with_offers() {
    for (;;) {
      // The queue only grows while it drains; index it instead of popping.
      for (size_t head = 0; head < queue_.size(); ++head) {
        const int u = queue_[head];
        int st_u = st_[u];
        if (s_[st_u] == 1) continue;
        // lab_[u] is fixed for the whole scan; st_[u] changes only when
        // on_found_edge contracts a blossom, so it is re-read after each.
        const int64_t lab_u = lab_[u];
        const int64_t* w_u = &weight_[static_cast<size_t>(u) * stride_];
        for (int v = 1; v <= n_; ++v) {
          const int st_v = st_[v];
          if (st_u == st_v) continue;
          const int64_t slack = lab_u + lab_[v] - 2 * w_u[v];
          if (slack == 0) {
            if (on_found_edge({u, v, w_u[v]})) return true;
            st_u = st_[u];
          } else {
            // An uncontracted v is its own surface and `slack` is the edge's;
            // a blossom's least-slack edge to u is in its adjacency row.
            update_slack(u, st_v, st_v == v ? slack : slack_from(u, st_v));
          }
        }
      }
      // Dual adjustment: the largest step that keeps every constraint tight
      // or slack-nonnegative (S-S edges move twice as fast, T-blossom duals
      // shrink toward their expansion point).
      int64_t d = kInf;
      for (int b = n_ + 1; b <= n_x_; ++b) {
        if (st_[b] == b && s_[b] == 1) d = std::min(d, lab_[b] / 2);
      }
      for (int x = 1; x <= n_x_; ++x) {
        if (st_[x] == x && slack_[x] != 0) {
          if (s_[x] == -1) {
            d = std::min(d, slack_val_[x]);
          } else if (s_[x] == 0) {
            d = std::min(d, slack_val_[x] / 2);
          }
        }
      }
      ++label_epoch_;
      for (int u = 1; u <= n_; ++u) {
        if (s_[st_[u]] == 0) {
          if (lab_[u] <= d) return false;  // maximum reached
          lab_[u] -= d;
        } else if (s_[st_[u]] == 1) {
          lab_[u] += d;
        }
      }
      for (int b = n_ + 1; b <= n_x_; ++b) {
        if (st_[b] == b) {
          if (s_[b] == 0) {
            lab_[b] += 2 * d;
          } else if (s_[b] == 1) {
            lab_[b] -= 2 * d;
          }
        }
      }
      // Labels move only here: refresh every stored slack, including those
      // of ids inside a blossom, which an expansion can bring back.
      for (int x = 1; x <= n_x_; ++x) {
        if (slack_[x] != 0) slack_val_[x] = slack_from(slack_[x], x);
      }
      queue_.clear();
      for (int x = 1; x <= n_x_; ++x) {
        if (st_[x] == x && slack_[x] != 0 && st_[slack_[x]] != x &&
            slack_val_[x] == 0) {
          if (on_found_edge(edge(slack_[x], x))) return true;
        }
      }
      for (int b = n_ + 1; b <= n_x_; ++b) {
        if (st_[b] == b && s_[b] == 1 && lab_[b] == 0) expand_blossom(b);
      }
    }
  }

  int n_ = 0;
  int n_x_ = 0;  // one past the highest vertex/blossom id in use
  int ids_ = 0;
  size_t stride_ = 0;             // n + 1: row length of weight_, flower_from_
  std::vector<int64_t> weight_;   // complement weights, symmetric, 1-indexed
  std::vector<Edge> rows_;        // blossom adjacency rows, ids_ wide
  std::vector<int64_t> lab_;
  std::vector<int> match_;
  std::vector<int> slack_;  // per outer vertex: least-slack S-neighbor
  std::vector<int64_t> slack_val_;  // slack of that edge, when slack_ != 0
  std::vector<int> st_;     // surface id: outermost blossom containing x
  std::vector<int> pa_;
  std::vector<std::vector<int>> flower_;  // blossom cycles
  std::vector<int> flower_from_;  // blossom rows: inner vertex owning the
                                  // edge to each original id
  std::vector<int> s_;  // -1 free, 0 = S (even), 1 = T (odd)
  std::vector<int> vis_;
  int vis_stamp_ = 0;
  std::vector<int> queue_;
  std::vector<int> tight_;            // tight_neighbors lists, stride_ wide
  std::vector<int> tight_len_;        // their lengths
  std::vector<int64_t> tight_epoch_;  // label epoch each list was built in
  int64_t label_epoch_ = 0;           // bumped by every dual adjustment
  bool offering_ = true;              // false during a phase's tight pass
  std::vector<int> contracted_;       // blossoms the tight pass contracted
};

}  // namespace

std::vector<Match> BlossomMatching::match(
    size_t num_defects, std::span<const size_t> weights) const {
  FTQC_CHECK(num_defects % 2 == 0, "defects come in pairs");
  FTQC_CHECK(weights.size() == num_defects * num_defects,
             "weight matrix must be num_defects x num_defects");
  std::vector<Match> out;
  if (num_defects == 0) return out;

  // One solver per thread: concurrent decodes never share buffers, and each
  // thread's buffers only grow to the largest instance it has solved.
  thread_local BlossomSolver solver;
  const std::vector<int>& mate = solver.solve(num_defects, weights);
  out.reserve(num_defects / 2);
  for (size_t u = 1; u <= num_defects; ++u) {
    const int v = mate[u];
    FTQC_CHECK(v > 0, "blossom matching must be perfect on a complete graph");
    if (static_cast<size_t>(v) > u) {
      out.push_back({static_cast<uint32_t>(u - 1), static_cast<uint32_t>(v - 1)});
    }
  }
  return out;
}

}  // namespace ftqc::decode
