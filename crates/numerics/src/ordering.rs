//! Fill-reducing ordering for sparse factorization.
//!
//! MNA matrices assembled in netlist order interleave node and branch
//! unknowns; factored as they stand, they fill in catastrophically. The
//! ordering here works on the *symmetrised* pattern of a square matrix —
//! the graph of `A + Aᵀ` without its diagonal, held once as a
//! [`SymmetricPattern`] — and returns a permutation `perm[new] = old` that
//! the sparse LU applies symmetrically before it factors.
//!
//! [`SymmetricPattern::amd`] is approximate minimum degree, after Amestoy,
//! Davis & Duff, "An approximate minimum degree ordering algorithm", SIAM
//! J. Matrix Anal. Appl. 17(4), 1996. It eliminates greedily, always the
//! variable whose (bounded) external degree is smallest, on the *quotient
//! graph*: an eliminated pivot becomes an *element* that stands for the
//! clique it would create, so the graph never grows. It bounds each
//! external degree from the element sizes instead of computing it exactly,
//! absorbs elements that a newer element covers, merges variables with
//! equal adjacency into supervariables, and eliminates a pivot's neighbours
//! whose whole adjacency is the new element together with it (mass
//! elimination). The pivots come out in a postorder of the assembly tree.
//! It is the order that makes a fully coupled VPEC matrix factor sparsely,
//! and it leaves the windowed ones less symmetric fill than a bandwidth
//! order does. The LU's partial pivoting can still move rows off the
//! diagonal, so its actual fill also depends on how ties are broken.

use crate::{CsrMatrix, Scalar};

/// The symmetrised sparsity pattern of a square matrix: for every row, the
/// sorted and deduplicated columns `j ≠ i` with `A[i][j] ≠ 0` or
/// `A[j][i] ≠ 0`, stored flat (CSR without values).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct SymmetricPattern {
    ptr: Vec<usize>,
    adj: Vec<usize>,
}

impl SymmetricPattern {
    /// The pattern of `A + Aᵀ` without the diagonal. Columns at or past
    /// `a.rows()` (a non-square input) are ignored.
    pub fn new<T: Scalar>(a: &CsrMatrix<T>) -> Self {
        let n = a.rows();
        let mut count = vec![0usize; n + 1];
        for i in 0..n {
            for &j in a.row(i).0 {
                if j != i && j < n {
                    count[i + 1] += 1;
                    count[j + 1] += 1;
                }
            }
        }
        for i in 0..n {
            count[i + 1] += count[i];
        }
        let mut fill = count.clone();
        let mut raw = vec![0usize; count[n]];
        for i in 0..n {
            for &j in a.row(i).0 {
                if j != i && j < n {
                    raw[fill[i]] = j;
                    fill[i] += 1;
                    raw[fill[j]] = i;
                    fill[j] += 1;
                }
            }
        }
        // Sort and deduplicate every neighbour list, compacting in place.
        let mut ptr = vec![0usize; n + 1];
        let mut out = 0usize;
        for i in 0..n {
            let seg = &mut raw[count[i]..count[i + 1]];
            seg.sort_unstable();
            let mut prev = usize::MAX;
            for k in count[i]..count[i + 1] {
                let j = raw[k];
                if j != prev {
                    raw[out] = j;
                    out += 1;
                    prev = j;
                }
            }
            ptr[i + 1] = out;
        }
        raw.truncate(out);
        raw.shrink_to_fit();
        SymmetricPattern { ptr, adj: raw }
    }

    /// Number of vertices (matrix dimension).
    pub fn dim(&self) -> usize {
        self.ptr.len() - 1
    }

    fn neighbours(&self, v: usize) -> &[usize] {
        &self.adj[self.ptr[v]..self.ptr[v + 1]]
    }

    /// Approximate minimum degree ordering, `perm[new] = old`; see the
    /// module docs. The order is a postorder of the assembly tree, each
    /// supervariable contiguous. Vertices with more than `max(16, 10·√n)`
    /// neighbours are kept out of the elimination and ordered last: a hub
    /// coupled to most of the graph would otherwise inflate every degree
    /// bound it touches.
    pub fn amd(&self) -> Vec<usize> {
        let order = QuotientGraph::new(self).eliminate_all();
        debug_assert!(is_permutation(&order, self.dim()));
        order
    }
}

/// Index sentinel: end of a list.
const NONE: usize = usize::MAX;

/// `true` when `perm` holds each of `0..n` exactly once.
pub(crate) fn is_permutation(perm: &[usize], n: usize) -> bool {
    if perm.len() != n {
        return false;
    }
    let mut seen = vec![false; n];
    for &p in perm {
        if p >= n || seen[p] {
            return false;
        }
        seen[p] = true;
    }
    true
}

/// What a vertex of the quotient graph is at the current step.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Role {
    /// An uneliminated principal variable.
    Variable,
    /// An eliminated pivot, standing for the clique of its variables.
    Element,
    /// Out of the graph: a variable merged into a supervariable or
    /// eliminated together with a pivot, or an element that a newer
    /// element covers.
    Absorbed,
    /// A dense vertex, left out of the elimination and ordered last.
    Dense,
}

/// The quotient graph of a minimum-degree elimination. Variables and
/// elements share one index space: an element keeps the index of the
/// pivot it was formed from.
///
/// A variable's lists live in one region of `slots`: `E_i` first, then
/// `A_i`. The region never has to grow: a variable joins the new element
/// `p` only if `p` was in `A_i` or an element of `E_i` is absorbed by `p`,
/// and either frees a slot. A region that would overflow all the same is
/// moved to the end of `slots`. Cliques `L_e` are appended to `cliques`
/// once, when their element is formed.
struct QuotientGraph {
    role: Vec<Role>,
    slots: Vec<usize>,
    /// Region of variable `i`: `slots[start[i]..start[i] + cap[i]]`,
    /// holding `E_i` (`n_elems[i]` entries) and then `A_i` (`n_vars[i]`).
    /// `A_i` may hold stale entries; they are dropped when `i` is next
    /// updated.
    start: Vec<usize>,
    cap: Vec<usize>,
    n_elems: Vec<usize>,
    n_vars: Vec<usize>,
    /// `L_e` of element `e`: `cliques[clique_start[e]..][..clique_len[e]]`.
    cliques: Vec<usize>,
    clique_start: Vec<usize>,
    clique_len: Vec<usize>,
    /// Original vertices a principal variable stands for.
    weight: Vec<usize>,
    /// For a variable, its approximate external degree; for an element,
    /// `|L_e|`, the total weight of its variables.
    degree: Vec<usize>,
    lists: DegreeLists,
    /// The original vertices of each principal variable, as a chain:
    /// `chain_next` links it (ended by `NONE`), `chain_tail` is its end.
    chain_next: Vec<usize>,
    chain_tail: Vec<usize>,
    /// `mark[v] == s` flags `v` during the pass that drew stamp `s`.
    mark: Vec<usize>,
    /// `|L_e \ L_p|` of element `e` during the step that drew stamp
    /// `outside_stamp[e]`.
    outside: Vec<usize>,
    outside_stamp: Vec<usize>,
    stamp: usize,
    /// Total weight of the variables not yet eliminated.
    remaining: usize,
    /// Assembly tree: the element that absorbed element `e`, or `NONE`.
    parent: Vec<usize>,
    /// Pivots in elimination order.
    pivots: Vec<usize>,
    dense: Vec<usize>,
    /// Per-step buffers, kept to reuse their allocations.
    clique: Vec<usize>,
    survivors: Vec<(usize, usize)>,
    by_hash: Vec<(usize, usize)>,
    kept: Vec<usize>,
}

impl QuotientGraph {
    fn new(pattern: &SymmetricPattern) -> Self {
        let n = pattern.dim();
        let dense_above = ((10.0 * (n as f64).sqrt()) as usize).max(16);
        let role: Vec<Role> = (0..n)
            .map(|v| {
                if pattern.neighbours(v).len() > dense_above {
                    Role::Dense
                } else {
                    Role::Variable
                }
            })
            .collect();
        let mut slots = Vec::with_capacity(pattern.adj.len());
        let mut start = vec![0; n];
        let mut n_vars = vec![0; n];
        for v in (0..n).filter(|&v| role[v] == Role::Variable) {
            start[v] = slots.len();
            slots.extend(
                pattern
                    .neighbours(v)
                    .iter()
                    .filter(|&&u| role[u] == Role::Variable),
            );
            n_vars[v] = slots.len() - start[v];
        }
        let dense: Vec<usize> = (0..n).filter(|&v| role[v] == Role::Dense).collect();
        let mut lists = DegreeLists::new(n);
        for v in (0..n).filter(|&v| role[v] == Role::Variable) {
            lists.insert(v, n_vars[v]);
        }
        QuotientGraph {
            remaining: n - dense.len(),
            role,
            slots,
            start,
            cap: n_vars.clone(),
            n_elems: vec![0; n],
            degree: n_vars.clone(),
            n_vars,
            cliques: Vec::new(),
            clique_start: vec![0; n],
            clique_len: vec![0; n],
            weight: vec![1; n],
            lists,
            chain_next: vec![NONE; n],
            chain_tail: (0..n).collect(),
            mark: vec![0; n],
            outside: vec![0; n],
            outside_stamp: vec![0; n],
            stamp: 0,
            parent: vec![NONE; n],
            pivots: Vec::new(),
            dense,
            clique: Vec::new(),
            survivors: Vec::new(),
            by_hash: Vec::new(),
            kept: Vec::new(),
        }
    }

    fn fresh_stamp(&mut self) -> usize {
        self.stamp += 1;
        self.stamp
    }

    /// `E_i` of variable `i`.
    fn elems(&self, i: usize) -> &[usize] {
        &self.slots[self.start[i]..self.start[i] + self.n_elems[i]]
    }

    /// `A_i` of variable `i`.
    fn vars(&self, i: usize) -> &[usize] {
        let s = self.start[i] + self.n_elems[i];
        &self.slots[s..s + self.n_vars[i]]
    }

    /// Pivots on a variable of least approximate degree until none is
    /// left. Returns the pivots in a postorder of the assembly tree, each
    /// followed by the vertices eliminated with it, and the dense vertices
    /// last.
    fn eliminate_all(mut self) -> Vec<usize> {
        while let Some(p) = self.lists.pop_min() {
            self.pivot(p);
        }
        let n = self.parent.len();
        let mut order = Vec::with_capacity(n);
        for root in assembly_postorder(&self.pivots, &self.parent) {
            let mut v = root;
            while v != NONE {
                order.push(v);
                v = self.chain_next[v];
            }
        }
        order.extend(self.dense);
        order
    }

    /// Eliminates `p`: forms its element `L_p`, bounds the external degree
    /// of every variable in it, merges the ones that became
    /// indistinguishable, and returns them to the degree lists.
    fn pivot(&mut self, p: usize) {
        let in_clique = self.form_element(p);
        let clique = std::mem::take(&mut self.clique);
        let mut survivors = std::mem::take(&mut self.survivors);
        survivors.clear();
        self.remaining = self.remaining.saturating_sub(self.weight[p]);
        let mut size: usize = clique.iter().map(|&i| self.weight[i]).sum();
        self.measure_outside(&clique);

        // Bound each variable's degree outside `L_p`; one that has no
        // neighbour outside is eliminated with `p` (mass elimination).
        for &i in &clique {
            match self.prune_and_measure(i, p, in_clique) {
                Some((external, hash)) => {
                    self.degree[i] = self.degree[i].min(external);
                    survivors.push((hash, i));
                }
                None => {
                    let w = self.weight[i];
                    size -= w;
                    self.remaining = self.remaining.saturating_sub(w);
                    self.role[i] = Role::Absorbed;
                    self.append_chain(p, i);
                }
            }
        }
        self.merge_indistinguishable(&survivors);

        // d_i = min(n − k − |i|, d_i + |L_p \ i|), with d_i already the
        // smaller of its old bound and its degree outside L_p. Variables go
        // back in the order `L_p` lists them, so on a tie the last one is
        // chosen first.
        self.clique_start[p] = self.cliques.len();
        for &(_, i) in &survivors {
            if self.role[i] != Role::Variable {
                continue;
            }
            let w = self.weight[i];
            let d = (self.degree[i] + size.saturating_sub(w))
                .min(self.remaining.saturating_sub(w));
            self.degree[i] = d;
            self.lists.insert(i, d);
            self.cliques.push(i);
        }
        self.clique_len[p] = self.cliques.len() - self.clique_start[p];
        self.degree[p] = size;
        self.pivots.push(p);
        self.clique = clique;
        self.survivors = survivors;
    }

    /// Turns pivot `p` into an element: `L_p` is the union of `A_p` and of
    /// `L_e` for every element `e` in `E_p`, which `p` absorbs. Collects
    /// the variables of `L_p` in `self.clique`, taken out of the degree
    /// lists, and returns the stamp that marks them.
    fn form_element(&mut self, p: usize) -> usize {
        let stamp = self.fresh_stamp();
        self.mark[p] = stamp;
        let mut clique = std::mem::take(&mut self.clique);
        clique.clear();
        let (first, n_elems) = (self.start[p], self.n_elems[p]);
        for k in first..first + n_elems {
            let e = self.slots[k];
            if self.role[e] != Role::Element {
                continue;
            }
            let from = self.clique_start[e];
            for t in from..from + self.clique_len[e] {
                let i = self.cliques[t];
                self.enrol(i, stamp, &mut clique);
            }
            self.role[e] = Role::Absorbed;
            self.parent[e] = p;
        }
        for k in first + n_elems..first + n_elems + self.n_vars[p] {
            let i = self.slots[k];
            self.enrol(i, stamp, &mut clique);
        }
        self.n_elems[p] = 0;
        self.n_vars[p] = 0;
        self.role[p] = Role::Element;
        self.clique = clique;
        stamp
    }

    fn enrol(&mut self, i: usize, stamp: usize, clique: &mut Vec<usize>) {
        if self.role[i] == Role::Variable && self.mark[i] != stamp {
            self.mark[i] = stamp;
            self.lists.remove(i);
            clique.push(i);
        }
    }

    /// `|L_e \ L_p|` for every element `e` that shares a variable with
    /// `L_p`: `|L_e|` less the weight of the shared variables.
    fn measure_outside(&mut self, clique: &[usize]) {
        let step = self.fresh_stamp();
        for &i in clique {
            let w = self.weight[i];
            let first = self.start[i];
            for k in first..first + self.n_elems[i] {
                let e = self.slots[k];
                if self.role[e] != Role::Element {
                    continue;
                }
                if self.outside_stamp[e] != step {
                    self.outside_stamp[e] = step;
                    self.outside[e] = self.degree[e];
                }
                self.outside[e] = self.outside[e].saturating_sub(w);
            }
        }
    }

    /// Updates variable `i` of the new element `p`. Drops absorbed
    /// elements from `E_i`, absorbs into `p` every element that `L_p`
    /// covers (`|L_e \ L_p| = 0`), and adds `p`. Drops from `A_i` the
    /// variables now reached through `p`. Returns `i`'s degree outside
    /// `L_p`, `Σ |L_e \ L_p| + |A_i|`, and a hash of its adjacency; `None`
    /// if that degree is zero.
    fn prune_and_measure(&mut self, i: usize, p: usize, in_clique: usize) -> Option<(usize, usize)> {
        let mut external = 0usize;
        let mut hash = p;
        // The newest element goes first. Elements formed later from `i`
        // then gather their variables newest clique first, and that order
        // breaks ties between equal degrees.
        let mut kept = std::mem::take(&mut self.kept);
        kept.clear();
        kept.push(p);
        let first = self.start[i];
        for k in first..first + self.n_elems[i] {
            let e = self.slots[k];
            if self.role[e] != Role::Element {
                continue;
            }
            if self.outside[e] == 0 {
                self.role[e] = Role::Absorbed;
                self.parent[e] = p;
                continue;
            }
            external += self.outside[e];
            hash = hash.wrapping_add(e);
            kept.push(e);
        }
        let n_elems = kept.len();
        let vars_from = first + self.n_elems[i];
        for k in vars_from..vars_from + self.n_vars[i] {
            let j = self.slots[k];
            if self.role[j] != Role::Variable || self.mark[j] == in_clique {
                continue;
            }
            external += self.weight[j];
            hash = hash.wrapping_add(j);
            kept.push(j);
        }

        let result = if external == 0 {
            self.n_elems[i] = 0;
            self.n_vars[i] = 0;
            None
        } else {
            if kept.len() > self.cap[i] {
                self.start[i] = self.slots.len();
                self.cap[i] = kept.len();
                self.slots.resize(self.slots.len() + kept.len(), NONE);
            }
            let s = self.start[i];
            self.slots[s..s + kept.len()].copy_from_slice(&kept);
            self.n_elems[i] = n_elems;
            self.n_vars[i] = kept.len() - n_elems;
            Some((external, hash))
        };
        self.kept = kept;
        result
    }

    /// Merges variables of the new element whose `E_i` and `A_i` are equal
    /// sets into one supervariable. `survivors` holds `(hash, variable)`
    /// pairs; only equal hashes are compared.
    fn merge_indistinguishable(&mut self, survivors: &[(usize, usize)]) {
        let mut by_hash = std::mem::take(&mut self.by_hash);
        by_hash.clear();
        by_hash.extend_from_slice(survivors);
        by_hash.sort_unstable();
        let mut start = 0;
        while start < by_hash.len() {
            let hash = by_hash[start].0;
            let end = start + by_hash[start..].iter().take_while(|&&(h, _)| h == hash).count();
            for a in start..end.saturating_sub(1) {
                let i = by_hash[a].1;
                if self.role[i] != Role::Variable {
                    continue;
                }
                let stamp = self.fresh_stamp();
                let first = self.start[i];
                for k in first..first + self.n_elems[i] + self.n_vars[i] {
                    let v = self.slots[k];
                    self.mark[v] = stamp;
                }
                for &(_, j) in &by_hash[a + 1..end] {
                    if self.role[j] == Role::Variable && self.same_adjacency(i, j, stamp) {
                        self.weight[i] += self.weight[j];
                        self.weight[j] = 0;
                        self.role[j] = Role::Absorbed;
                        self.n_elems[j] = 0;
                        self.n_vars[j] = 0;
                        self.append_chain(i, j);
                    }
                }
            }
            start = end;
        }
        self.by_hash = by_hash;
    }

    /// `true` when `j`'s lists have the lengths of `i`'s and every entry
    /// carries `i`'s stamp. Neither list holds duplicates, so the sets are
    /// then equal.
    fn same_adjacency(&self, i: usize, j: usize, stamp: usize) -> bool {
        self.n_elems[j] == self.n_elems[i]
            && self.n_vars[j] == self.n_vars[i]
            && self.elems(j).iter().all(|&e| self.mark[e] == stamp)
            && self.vars(j).iter().all(|&v| self.mark[v] == stamp)
    }

    /// Appends the chain of original vertices of `from` to that of `into`.
    fn append_chain(&mut self, into: usize, from: usize) {
        let tail = self.chain_tail[into];
        self.chain_next[tail] = from;
        self.chain_tail[into] = self.chain_tail[from];
    }
}

/// The pivots in a postorder of the assembly tree `parent`: every
/// subtree contiguous, children before their parent, siblings and roots
/// in elimination order. A postorder leaves the Cholesky fill unchanged
/// and keeps the pivots of each subtree together, which also keeps the LU
/// factor's row pivoting local.
fn assembly_postorder(pivots: &[usize], parent: &[usize]) -> Vec<usize> {
    let n = parent.len();
    let mut first_child = vec![NONE; n];
    let mut sibling = vec![NONE; n];
    for &e in pivots.iter().rev() {
        if parent[e] != NONE {
            sibling[e] = first_child[parent[e]];
            first_child[parent[e]] = e;
        }
    }
    let mut post = Vec::with_capacity(pivots.len());
    let mut stack = Vec::new();
    for &root in pivots.iter().filter(|&&e| parent[e] == NONE) {
        stack.push(root);
        while let Some(&e) = stack.last() {
            let child = first_child[e];
            if child == NONE {
                stack.pop();
                post.push(e);
            } else {
                first_child[e] = sibling[child];
                stack.push(child);
            }
        }
    }
    post
}

/// Variables bucketed by approximate degree: one doubly linked list per
/// degree, and the lowest degree that may be non-empty.
struct DegreeLists {
    head: Vec<usize>,
    next: Vec<usize>,
    prev: Vec<usize>,
    bucket: Vec<usize>,
    min: usize,
}

impl DegreeLists {
    fn new(n: usize) -> Self {
        DegreeLists {
            head: vec![NONE; n + 1],
            next: vec![NONE; n],
            prev: vec![NONE; n],
            bucket: vec![0; n],
            min: 0,
        }
    }

    /// Puts `v` at the front of the list for degree `d`.
    fn insert(&mut self, v: usize, d: usize) {
        let d = d.min(self.head.len() - 1);
        let first = self.head[d];
        self.bucket[v] = d;
        self.prev[v] = NONE;
        self.next[v] = first;
        if first != NONE {
            self.prev[first] = v;
        }
        self.head[d] = v;
        self.min = self.min.min(d);
    }

    fn remove(&mut self, v: usize) {
        let (before, after) = (self.prev[v], self.next[v]);
        if before == NONE {
            self.head[self.bucket[v]] = after;
        } else {
            self.next[before] = after;
        }
        if after != NONE {
            self.prev[after] = before;
        }
    }

    /// Takes the first variable of the lowest non-empty degree.
    fn pop_min(&mut self) -> Option<usize> {
        while self.min < self.head.len() {
            let v = self.head[self.min];
            if v != NONE {
                self.remove(v);
                return Some(v);
            }
            self.min += 1;
        }
        None
    }
}

/// Applies a symmetric permutation: returns `B` with
/// `B[i][j] = A[perm[i]][perm[j]]`.
///
/// # Panics
///
/// Panics if `perm.len() != a.rows()` or the matrix is not square.
pub fn permute_symmetric<T: Scalar>(a: &CsrMatrix<T>, perm: &[usize]) -> CsrMatrix<T> {
    let n = a.rows();
    assert_eq!(n, a.cols(), "symmetric permutation needs a square matrix");
    assert_eq!(perm.len(), n, "permutation length mismatch");
    let mut inv = vec![0usize; n];
    for (new, &old) in perm.iter().enumerate() {
        inv[old] = new;
    }
    let mut row_ptr = vec![0usize; n + 1];
    let mut entries: Vec<(usize, T)> = Vec::with_capacity(a.nnz());
    for (new, &old) in perm.iter().enumerate() {
        let (cols, vals) = a.row(old);
        let start = entries.len();
        entries.extend(
            cols.iter()
                .zip(vals)
                .filter(|(_, v)| !v.is_zero())
                .map(|(&j, &v)| (inv[j], v)),
        );
        entries[start..].sort_unstable_by_key(|&(j, _)| j);
        row_ptr[new + 1] = entries.len();
    }
    let (col_idx, values) = entries.into_iter().unzip();
    CsrMatrix::from_parts(n, n, row_ptr, col_idx, values)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::CooMatrix;

    /// A ring graph numbered badly: 0 connects to n-1.
    fn ring(n: usize) -> CsrMatrix<f64> {
        let mut coo = CooMatrix::new(n, n);
        for i in 0..n {
            coo.push(i, i, 4.0).unwrap();
            let j = (i + 1) % n;
            coo.push(i, j, -1.0).unwrap();
            coo.push(j, i, -1.0).unwrap();
        }
        coo.to_csr()
    }

    /// 5-point Laplacian on an `m × m` grid, row-major numbering.
    fn grid(m: usize) -> CsrMatrix<f64> {
        let n = m * m;
        let mut coo = CooMatrix::new(n, n);
        for r in 0..m {
            for c in 0..m {
                let i = r * m + c;
                coo.push(i, i, 4.0).unwrap();
                if c + 1 < m {
                    coo.push(i, i + 1, -1.0).unwrap();
                    coo.push(i + 1, i, -1.0).unwrap();
                }
                if r + 1 < m {
                    coo.push(i, i + m, -1.0).unwrap();
                    coo.push(i + m, i, -1.0).unwrap();
                }
            }
        }
        coo.to_csr()
    }

    /// Arrow (star) matrix: vertex 0 couples to every other vertex.
    fn arrow(n: usize) -> CsrMatrix<f64> {
        let mut coo = CooMatrix::new(n, n);
        for i in 0..n {
            coo.push(i, i, n as f64).unwrap();
            if i > 0 {
                coo.push(0, i, 1.0).unwrap();
                coo.push(i, 0, 1.0).unwrap();
            }
        }
        coo.to_csr()
    }

    /// Seeded random pattern with `per_row` off-diagonal entries per row,
    /// not symmetric.
    fn random_pattern(n: usize, per_row: usize, seed: u64) -> CsrMatrix<f64> {
        let mut rng = crate::rng::XorShift64::new(seed);
        let mut coo = CooMatrix::new(n, n);
        for i in 0..n {
            coo.push(i, i, 1.0).unwrap();
            for _ in 0..per_row {
                let j = rng.range_usize(0, n);
                coo.push(i, j, 1.0).unwrap();
            }
        }
        coo.to_csr()
    }

    fn amd(a: &CsrMatrix<f64>) -> Vec<usize> {
        SymmetricPattern::new(a).amd()
    }

    fn assert_permutation(p: &[usize], n: usize) {
        let mut sorted = p.to_vec();
        sorted.sort_unstable();
        assert_eq!(sorted, (0..n).collect::<Vec<_>>());
    }

    /// Symbolic Cholesky by explicit elimination on a boolean matrix: the
    /// nonzeros of L, diagonal included, under ordering `perm`.
    fn fill(a: &CsrMatrix<f64>, perm: &[usize]) -> u64 {
        let n = a.rows();
        let b = permute_symmetric(a, perm);
        let mut m = vec![vec![false; n]; n];
        let b = &b;
        for (i, j) in (0..n).flat_map(|i| b.row(i).0.iter().map(move |&j| (i, j))) {
            m[i][j] = true;
            m[j][i] = true;
        }
        let mut nnz = 0u64;
        for k in 0..n {
            let below: Vec<usize> = (k + 1..n).filter(|&i| m[i][k]).collect();
            nnz += 1 + below.len() as u64;
            for &i in &below {
                for &j in &below {
                    m[i][j] = true;
                }
            }
        }
        nnz
    }

    fn natural(n: usize) -> Vec<usize> {
        (0..n).collect()
    }

    #[test]
    fn permutation_preserves_values() {
        let a = ring(8);
        let p = amd(&a);
        let b = permute_symmetric(&a, &p);
        assert_eq!(a.nnz(), b.nnz());
        // Diagonal values travel with the permutation.
        for i in 0..8 {
            assert_eq!(b.get(i, i), 4.0);
        }
        // Row sums are permutation-invariant for a symmetric matrix.
        let row_sum = |m: &CsrMatrix<f64>, i: usize| -> f64 { m.row(i).1.iter().sum() };
        let mut sa: Vec<f64> = (0..8).map(|i| row_sum(&a, i)).collect();
        let mut sb: Vec<f64> = (0..8).map(|i| row_sum(&b, i)).collect();
        sa.sort_by(|x, y| x.total_cmp(y));
        sb.sort_by(|x, y| x.total_cmp(y));
        assert_eq!(sa, sb);
    }

    #[test]
    fn permute_symmetric_matches_entrywise_definition() {
        let a = random_pattern(30, 3, 7);
        let p = amd(&a);
        let b = permute_symmetric(&a, &p);
        for i in 0..30 {
            let cols = b.row(i).0;
            assert!(cols.windows(2).all(|w| w[0] < w[1]), "row {i} sorted");
            for j in 0..30 {
                assert_eq!(b.get(i, j), a.get(p[i], p[j]));
            }
        }
    }

    #[test]
    fn handles_disconnected_components() {
        let mut coo = CooMatrix::new(6, 6);
        for i in 0..6 {
            coo.push(i, i, 1.0).unwrap();
        }
        coo.push(0, 1, 1.0).unwrap();
        coo.push(1, 0, 1.0).unwrap();
        coo.push(4, 5, 1.0).unwrap();
        coo.push(5, 4, 1.0).unwrap();
        assert_permutation(&amd(&coo.to_csr()), 6);
    }

    #[test]
    fn empty_matrix() {
        let a = CooMatrix::<f64>::new(0, 0).to_csr();
        assert_eq!(SymmetricPattern::new(&a).dim(), 0);
        assert!(amd(&a).is_empty());
    }

    #[test]
    fn asymmetric_pattern_is_symmetrized() {
        // Entry only at (0, 3): the pattern must still hold edge 0—3.
        let mut coo = CooMatrix::new(4, 4);
        for i in 0..4 {
            coo.push(i, i, 1.0).unwrap();
        }
        coo.push(0, 3, 1.0).unwrap();
        let s = SymmetricPattern::new(&coo.to_csr());
        assert_eq!(s.neighbours(0), &[3]);
        assert_eq!(s.neighbours(3), &[0]);
        assert!(s.neighbours(1).is_empty());
        assert_permutation(&s.amd(), 4);
    }

    #[test]
    fn amd_returns_permutations_on_varied_patterns() {
        for (n, per_row, seed) in [(1, 0, 1), (2, 1, 2), (3, 2, 3), (50, 1, 4), (200, 4, 5)] {
            let a = random_pattern(n, per_row, seed);
            assert_permutation(&amd(&a), n);
        }
        // Diagonal only: every vertex is its own component.
        let mut coo = CooMatrix::new(5, 5);
        for i in 0..5 {
            coo.push(i, i, 1.0).unwrap();
        }
        assert_permutation(&amd(&coo.to_csr()), 5);
        // A clique: one supervariable after the first pivot.
        let mut clique = CooMatrix::new(40, 40);
        for i in 0..40 {
            for j in 0..40 {
                clique.push(i, j, 1.0).unwrap();
            }
        }
        assert_permutation(&amd(&clique.to_csr()), 40);
    }

    #[test]
    fn amd_leaves_the_arrow_hub_for_last() {
        // Eliminating the hub first fills the whole matrix; AMD orders the
        // leaves first, so L has no fill at all.
        let n = 60;
        let a = arrow(n);
        let p = amd(&a);
        assert!(p[n - 2..].contains(&0), "hub among the last two: {p:?}");
        assert_eq!(fill(&a, &p), (2 * n - 1) as u64);
        assert_eq!(fill(&a, &natural(n)), (n * (n + 1) / 2) as u64);
    }

    #[test]
    fn dense_hub_is_set_aside() {
        // A hub coupled to every vertex of a 30 × 30 grid has more than
        // 10·√n neighbours: it is ordered last, and the grid is ordered
        // as if the hub were not there.
        let m = 30;
        let g = grid(m);
        let n = m * m + 1;
        let mut coo = CooMatrix::new(n, n);
        for i in 0..m * m {
            let (cols, vals) = g.row(i);
            for (&j, &v) in cols.iter().zip(vals) {
                coo.push(i, j, v).unwrap();
            }
            coo.push(i, n - 1, -1.0).unwrap();
            coo.push(n - 1, i, -1.0).unwrap();
        }
        coo.push(n - 1, n - 1, n as f64).unwrap();
        let p = amd(&coo.to_csr());
        assert_eq!(p[n - 1], n - 1);
        assert_eq!(&p[..n - 1], amd(&g).as_slice());
    }

    #[test]
    fn amd_beats_the_banded_numbering_on_a_grid() {
        // Row-major numbering is a bandwidth-m order, as good as reverse
        // Cuthill–McKee on a square grid; minimum degree fills far less.
        let a = grid(30);
        let (amd_fill, banded) = (fill(&a, &amd(&a)), fill(&a, &natural(900)));
        assert!(
            (amd_fill as f64) < 0.6 * banded as f64,
            "30x30 grid fill: AMD {amd_fill} vs banded {banded}"
        );
    }

    #[test]
    fn amd_keeps_a_scrambled_chain_free_of_fill() {
        // A path whose k-th vertex is 17·k mod n: minimum degree always
        // takes an end of what is left, so L has no fill, while the
        // natural numbering fills.
        let n = 64;
        let mut coo = CooMatrix::new(n, n);
        for k in 0..n {
            coo.push(k, k, 4.0).unwrap();
        }
        for k in 0..n - 1 {
            let (u, v) = (17 * k % n, 17 * (k + 1) % n);
            coo.push(u, v, -1.0).unwrap();
            coo.push(v, u, -1.0).unwrap();
        }
        let a = coo.to_csr();
        assert_eq!(fill(&a, &amd(&a)), (2 * n - 1) as u64);
        assert!(fill(&a, &natural(n)) > (2 * n - 1) as u64);
    }

    #[test]
    fn amd_fill_is_close_to_exact_minimum_degree() {
        // The approximate degrees are upper bounds; on random patterns the
        // resulting fill stays within 25 % of exact minimum degree's.
        for (n, per_row, seed) in [(60, 2, 31), (120, 2, 32), (150, 3, 33)] {
            let a = random_pattern(n, per_row, seed);
            let (approx, exact) = (fill(&a, &amd(&a)), fill(&a, &exact_minimum_degree(&a)));
            assert!(
                approx as f64 <= 1.25 * exact as f64,
                "n {n}: AMD {approx} vs exact MD {exact}"
            );
        }
    }

    /// Exact minimum degree on the explicit elimination graph (lowest
    /// index on ties), for comparison.
    fn exact_minimum_degree(a: &CsrMatrix<f64>) -> Vec<usize> {
        let s = SymmetricPattern::new(a);
        let n = s.dim();
        let mut adj: Vec<std::collections::BTreeSet<usize>> = (0..n)
            .map(|v| s.neighbours(v).iter().copied().collect())
            .collect();
        let mut alive = vec![true; n];
        let mut order = Vec::with_capacity(n);
        for _ in 0..n {
            let p = (0..n)
                .filter(|&v| alive[v])
                .min_by_key(|&v| (adj[v].len(), v))
                .unwrap();
            alive[p] = false;
            order.push(p);
            let nb: Vec<usize> = adj[p].iter().copied().collect();
            for &u in &nb {
                adj[u].remove(&p);
                for &v in &nb {
                    if u != v {
                        adj[u].insert(v);
                    }
                }
            }
        }
        order
    }

    #[test]
    fn orderings_are_deterministic() {
        let a = random_pattern(300, 3, 21);
        assert_eq!(amd(&a), amd(&a));
    }
}
