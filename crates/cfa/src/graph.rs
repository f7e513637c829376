//! The flow graph: program points, subset edges (with transfer functions),
//! and listeners that extend the graph as values arrive.
//!
//! The relation `A` of Fig. 4 is solved as a dynamic constraint graph: plain
//! edges are `F(a) ⊆ F(b)` constraints; *split* edges carry the polymorphic
//! splitting substitution `κ[l′/l]`; listeners implement the rules that need
//! to see which abstract values actually arrive (applications, conditionals,
//! pair projections, primitive transfer functions).
//!
//! Each node logs its values in arrival order. The solver is semi-naive: a
//! popped node sends only its delta (the values logged since its previous
//! pop) across its edges, and each listener reads the log from where it
//! last stopped.

use crate::domain::{AbsVal, ContourId, ValSet};
use fdi_lang::{Label, PrimOp, VarId};
use std::collections::{HashMap, HashSet, VecDeque};
use std::sync::Arc;

/// Final per-expression flow values: label → [(contour, values)].
pub type ExprTable = HashMap<Label, Vec<(ContourId, ValSet)>>;

/// Final per-variable flow values.
pub type VarTable = HashMap<(VarId, ContourId), ValSet>;

/// Identifies one flow-graph node.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct NodeId(pub u32);

/// The program points of the analysis.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum NodeKey {
    /// `F(l, κ)` — the values of expression `l` in contour `κ`.
    ExprAt(Label, ContourId),
    /// `F(x, κ)` — the values bound to `x` in contour `κ`.
    VarAt(VarId, ContourId),
    /// The car field of the abstract pair `(l, κ)ᵖ`.
    PairCar(Label, ContourId),
    /// The cdr field of the abstract pair `(l, κ)ᵖ`.
    PairCdr(Label, ContourId),
    /// The merged element field of the abstract vector `(l, κ)`.
    VecElem(Label, ContourId),
}

/// A transfer function attached to an edge.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Transfer {
    /// Plain subset constraint.
    Copy,
    /// Use-site split of a `let`-bound variable: closures have `bind`
    /// replaced by `use_site` in their contour.
    SplitLet {
        /// The `let` expression's label.
        bind: Label,
        /// The variable-reference label.
        use_site: Label,
    },
    /// Use-site split of a `letrec`-bound variable: like [`Transfer::SplitLet`]
    /// but closure environments are also updated for the letrec's own
    /// variables, so recursive references evaluate in the split contour.
    SplitRec {
        /// The `letrec` expression's label.
        bind: Label,
        /// The variable-reference label.
        use_site: Label,
    },
}

/// An index into the listener table.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct ListenerId(pub u32);

/// A walk-environment handle (linked list arena in the analyzer).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct WalkEnv(pub Option<u32>);

impl WalkEnv {
    /// The empty environment.
    pub const EMPTY: WalkEnv = WalkEnv(None);
}

/// Rules that fire as values arrive at a node.
#[derive(Debug, Clone)]
pub enum Listener {
    /// A call site watching its function position.
    Call {
        /// The call expression's label.
        call: Label,
        /// The contour the call is analyzed in.
        kappa: ContourId,
    },
    /// An `apply` site watching its function position.
    Apply {
        /// The apply expression's label.
        call: Label,
        /// The contour the apply is analyzed in.
        kappa: ContourId,
    },
    /// A conditional watching its test.
    IfGuard {
        /// The `if` expression's label.
        iff: Label,
        /// Contour of the conditional.
        kappa: ContourId,
        /// Walk environment for lazily analyzing the branches.
        env: WalkEnv,
    },
    /// `car` watching its argument for pair values.
    CarRead {
        /// Result node of the `car` expression.
        dest: NodeId,
    },
    /// `cdr` watching its argument.
    CdrRead {
        /// Result node of the `cdr` expression.
        dest: NodeId,
    },
    /// `set-car!` watching its pair argument.
    SetCarWrite {
        /// Node of the stored value.
        src: NodeId,
    },
    /// `set-cdr!` watching its pair argument.
    SetCdrWrite {
        /// Node of the stored value.
        src: NodeId,
    },
    /// `vector-ref` watching its vector argument.
    VecRead {
        /// Result node.
        dest: NodeId,
    },
    /// `vector-set!`/`vector-fill!` watching the vector argument.
    VecWrite {
        /// Node of the stored value.
        src: NodeId,
    },
    /// A non-data primitive recomputing its abstract result when any
    /// argument changes.
    PrimEval {
        /// The primitive.
        prim: PrimOp,
        /// Result expression label.
        label: Label,
        /// Contour.
        kappa: ContourId,
    },
    /// `cl-ref` watching its closure argument.
    ClRefRead {
        /// Result node.
        dest: NodeId,
        /// Free-variable index.
        index: u32,
    },
    /// Walks a list spine: flows elements to `elems` and spine pairs plus
    /// nil to `spine` (used by `apply` and rest-parameter binding).
    Spine {
        /// Element target (each pair's car flows here).
        elems: Option<NodeId>,
        /// Spine target (pairs and nil flow here).
        spine: Option<NodeId>,
    },
}

#[derive(Debug, Default)]
struct NodeData {
    /// The node's value set, behind an `Arc` so a new edge or a primitive
    /// can read it in O(1) ([`FlowGraph::vals_handle`]) while the solver
    /// mutates other nodes; mutation goes through `Arc::make_mut`, which only
    /// copies while a handle to *this* node is still alive.
    vals: Arc<ValSet>,
    /// Every value of `vals`, in arrival order. A suffix of it is what some
    /// consumer has not seen yet: `log[popped..]` is the node's delta, and
    /// each listener keeps its own position.
    log: Vec<AbsVal>,
    /// `log.len()` when the node was last popped ([`FlowGraph::take_delta`]).
    popped: usize,
    succs: Vec<(NodeId, Transfer)>,
    listeners: Vec<ListenerId>,
}

/// A registered listener: its rule, the node it watches, and how much of
/// that node's log it has processed.
#[derive(Debug)]
struct ListenerSlot {
    listener: Listener,
    node: NodeId,
    seen: usize,
}

/// The mutable flow graph.
#[derive(Debug, Default)]
pub struct FlowGraph {
    nodes: Vec<NodeData>,
    keys: HashMap<NodeKey, NodeId>,
    node_keys: Vec<NodeKey>,
    edge_set: HashSet<(NodeId, NodeId, Transfer)>,
    dirty: Vec<bool>,
    worklist: VecDeque<NodeId>,
    /// Expression nodes per label, for the `?`-contour union queries.
    expr_index: HashMap<Label, Vec<(ContourId, NodeId)>>,
    listeners: Vec<ListenerSlot>,
    edges_added: u64,
}

impl FlowGraph {
    /// Creates an empty graph.
    pub fn new() -> FlowGraph {
        FlowGraph::default()
    }

    /// Finds or creates the node for `key`.
    pub fn node(&mut self, key: NodeKey) -> NodeId {
        if let Some(&n) = self.keys.get(&key) {
            return n;
        }
        let n = NodeId(self.nodes.len() as u32);
        self.keys.insert(key, n);
        self.node_keys.push(key);
        self.nodes.push(NodeData::default());
        self.dirty.push(false);
        if let NodeKey::ExprAt(l, k) = key {
            self.expr_index.entry(l).or_default().push((k, n));
        }
        n
    }

    /// Finds an existing node.
    pub fn try_node(&self, key: NodeKey) -> Option<NodeId> {
        self.keys.get(&key).copied()
    }

    /// An O(1) snapshot of a node's full value set, for the consumers that
    /// must see all of it once: a new edge and a primitive's recomputation.
    pub fn vals_handle(&self, n: NodeId) -> Arc<ValSet> {
        Arc::clone(&self.nodes[n.0 as usize].vals)
    }

    /// Adds one value; enqueues the node when it grows.
    pub fn add_val(&mut self, n: NodeId, v: AbsVal) -> bool {
        let node = &mut self.nodes[n.0 as usize];
        // Membership pre-check: don't force a copy-on-write of a shared set
        // just to discover the insert would be a no-op.
        if node.vals.contains(v) {
            return false;
        }
        Arc::make_mut(&mut node.vals).insert(v);
        node.log.push(v);
        self.mark_dirty(n);
        true
    }

    /// Unions a set into a node, logging only the values that are new there;
    /// enqueues the node when it grows.
    pub fn union_into(&mut self, n: NodeId, vals: &ValSet) -> bool {
        let node = &mut self.nodes[n.0 as usize];
        // Find the new values before `make_mut`, so a union that adds nothing
        // (a self-edge's snapshot, say) never copies a shared set.
        let before = node.log.len();
        node.vals.missing(vals, &mut node.log);
        if node.log.len() == before {
            return false;
        }
        Arc::make_mut(&mut node.vals).merge_disjoint(&node.log[before..]);
        self.mark_dirty(n);
        true
    }

    /// The node's delta — the values added since it was last popped, in
    /// sorted order — which it then forgets. The full set is unchanged.
    pub fn take_delta(&mut self, n: NodeId) -> ValSet {
        let node = &mut self.nodes[n.0 as usize];
        let delta = node.log[node.popped..].iter().copied().collect();
        node.popped = node.log.len();
        delta
    }

    fn mark_dirty(&mut self, n: NodeId) {
        if !std::mem::replace(&mut self.dirty[n.0 as usize], true) {
            self.worklist.push_back(n);
        }
    }

    /// Registers an edge if new. The caller must then propagate the source's
    /// current values across it once.
    pub fn add_edge(&mut self, src: NodeId, dst: NodeId, t: Transfer) -> bool {
        if self.edge_set.insert((src, dst, t)) {
            self.nodes[src.0 as usize].succs.push((dst, t));
            self.edges_added += 1;
            true
        } else {
            false
        }
    }

    /// Registers a listener and returns its id. The caller must then process
    /// the node's values against it once ([`FlowGraph::take_unseen`]).
    pub fn add_listener(&mut self, node: NodeId, listener: Listener) -> ListenerId {
        let id = ListenerId(self.listeners.len() as u32);
        self.listeners.push(ListenerSlot {
            listener,
            node,
            seen: 0,
        });
        self.nodes[node.0 as usize].listeners.push(id);
        id
    }

    /// The listener payload.
    pub fn listener(&self, id: ListenerId) -> Listener {
        self.listeners[id.0 as usize].listener.clone()
    }

    /// The values of the listener's node that it has not processed yet, in
    /// sorted order; from now on they count as processed. A new listener
    /// gets the node's full set.
    pub fn take_unseen(&mut self, id: ListenerId) -> ValSet {
        let slot = &mut self.listeners[id.0 as usize];
        let log = &self.nodes[slot.node.0 as usize].log;
        let unseen = log[slot.seen..].iter().copied().collect();
        slot.seen = log.len();
        unseen
    }

    /// All `(contour, node)` pairs recorded for expression label `l`.
    #[cfg(test)]
    pub fn expr_nodes(&self, l: Label) -> &[(ContourId, NodeId)] {
        self.expr_index.get(&l).map(Vec::as_slice).unwrap_or(&[])
    }

    /// Pops the next dirty node, clearing its flag.
    pub fn pop_dirty(&mut self) -> Option<NodeId> {
        while let Some(n) = self.worklist.pop_front() {
            if std::mem::replace(&mut self.dirty[n.0 as usize], false) {
                return Some(n);
            }
        }
        None
    }

    /// Number of outgoing edges of `n` (edges are append-only, so indexed
    /// iteration stays valid while edges are added).
    pub fn succ_count(&self, n: NodeId) -> usize {
        self.nodes[n.0 as usize].succs.len()
    }

    /// The `i`-th outgoing edge of `n`.
    pub fn succ(&self, n: NodeId, i: usize) -> (NodeId, Transfer) {
        self.nodes[n.0 as usize].succs[i]
    }

    /// Number of listeners attached to `n`.
    pub fn listener_count(&self, n: NodeId) -> usize {
        self.nodes[n.0 as usize].listeners.len()
    }

    /// The `i`-th listener attached to `n`.
    pub fn listener_at(&self, n: NodeId, i: usize) -> ListenerId {
        self.nodes[n.0 as usize].listeners[i]
    }

    /// Total node count.
    pub fn node_count(&self) -> usize {
        self.nodes.len()
    }

    /// Total edge count.
    pub fn edge_count(&self) -> u64 {
        self.edges_added
    }

    /// Consumes the graph, returning per-label `(contour, values)` tables
    /// for expression nodes and `(var, contour, values)` entries.
    pub fn into_tables(self) -> (ExprTable, VarTable) {
        let mut exprs: HashMap<Label, Vec<(ContourId, ValSet)>> = HashMap::new();
        let mut vars = HashMap::new();
        for (i, data) in self.nodes.into_iter().enumerate() {
            // By now every solver snapshot has been dropped, so each Arc is
            // uniquely owned and unwraps without copying.
            let vals = Arc::try_unwrap(data.vals).unwrap_or_else(|a| (*a).clone());
            match self.node_keys[i] {
                NodeKey::ExprAt(l, k) => exprs.entry(l).or_default().push((k, vals)),
                NodeKey::VarAt(v, k) => {
                    vars.insert((v, k), vals);
                }
                _ => {}
            }
        }
        (exprs, vars)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::domain::AbsConst;

    #[test]
    fn node_interning() {
        let mut g = FlowGraph::new();
        let a = g.node(NodeKey::ExprAt(Label(1), ContourId::EMPTY));
        let b = g.node(NodeKey::ExprAt(Label(1), ContourId::EMPTY));
        assert_eq!(a, b);
        assert_eq!(g.node_count(), 1);
        assert_eq!(g.try_node(NodeKey::VarAt(VarId(0), ContourId::EMPTY)), None);
    }

    #[test]
    fn dirty_queue_dedups() {
        let mut g = FlowGraph::new();
        let a = g.node(NodeKey::ExprAt(Label(1), ContourId::EMPTY));
        assert!(g.add_val(a, AbsVal::Const(AbsConst::True)));
        assert!(g.add_val(a, AbsVal::Const(AbsConst::False)));
        assert!(!g.add_val(a, AbsVal::Const(AbsConst::True)));
        assert_eq!(g.pop_dirty(), Some(a));
        assert_eq!(g.pop_dirty(), None);
    }

    #[test]
    fn edges_dedup() {
        let mut g = FlowGraph::new();
        let a = g.node(NodeKey::ExprAt(Label(1), ContourId::EMPTY));
        let b = g.node(NodeKey::ExprAt(Label(2), ContourId::EMPTY));
        assert!(g.add_edge(a, b, Transfer::Copy));
        assert!(!g.add_edge(a, b, Transfer::Copy));
        assert!(g.add_edge(
            a,
            b,
            Transfer::SplitLet {
                bind: Label(0),
                use_site: Label(9)
            }
        ));
        assert_eq!(g.edge_count(), 2);
        assert_eq!(g.succ_count(a), 2);
    }

    #[test]
    fn expr_index_tracks_contours() {
        let mut g = FlowGraph::new();
        g.node(NodeKey::ExprAt(Label(1), ContourId(0)));
        g.node(NodeKey::ExprAt(Label(1), ContourId(1)));
        g.node(NodeKey::ExprAt(Label(2), ContourId(0)));
        assert_eq!(g.expr_nodes(Label(1)).len(), 2);
        assert_eq!(g.expr_nodes(Label(3)).len(), 0);
    }

    #[test]
    fn delta_holds_exactly_the_new_values() {
        const T: AbsVal = AbsVal::Const(AbsConst::True);
        const F: AbsVal = AbsVal::Const(AbsConst::False);
        const NIL: AbsVal = AbsVal::Const(AbsConst::Nil);
        let mut g = FlowGraph::new();
        let a = g.node(NodeKey::ExprAt(Label(1), ContourId::EMPTY));
        assert!(g.add_val(a, T));
        assert!(!g.add_val(a, T));
        let incoming: ValSet = [T, F, NIL].into_iter().collect();
        assert!(g.union_into(a, &incoming));
        assert!(!g.union_into(a, &incoming));
        assert_eq!(g.take_delta(a), incoming);
        // Only values new since the last take are in the next delta.
        assert!(g.union_into(a, &[F, AbsVal::Const(AbsConst::Num)].into_iter().collect()));
        assert_eq!(
            g.take_delta(a),
            ValSet::singleton(AbsVal::Const(AbsConst::Num))
        );
    }

    #[test]
    fn self_union_records_nothing() {
        let mut g = FlowGraph::new();
        let a = g.node(NodeKey::ExprAt(Label(1), ContourId::EMPTY));
        g.add_val(a, AbsVal::Const(AbsConst::Nil));
        assert_eq!(g.pop_dirty(), Some(a));
        g.take_delta(a);
        let own = g.vals_handle(a);
        assert!(!g.union_into(a, &own));
        assert!(g.take_delta(a).is_empty());
        assert_eq!(g.pop_dirty(), None);
    }

    #[test]
    fn take_delta_empties_the_delta_and_keeps_the_set() {
        let mut g = FlowGraph::new();
        let a = g.node(NodeKey::ExprAt(Label(1), ContourId::EMPTY));
        g.add_val(a, AbsVal::Const(AbsConst::True));
        g.add_val(a, AbsVal::Const(AbsConst::False));
        assert_eq!(g.take_delta(a).len(), 2);
        assert!(g.take_delta(a).is_empty());
        assert_eq!(g.vals_handle(a).len(), 2);
    }

    #[test]
    fn listeners_see_the_full_set_once_then_only_new_values() {
        const T: AbsVal = AbsVal::Const(AbsConst::True);
        const F: AbsVal = AbsVal::Const(AbsConst::False);
        let mut g = FlowGraph::new();
        let a = g.node(NodeKey::ExprAt(Label(1), ContourId::EMPTY));
        g.add_val(a, F);
        let early = g.add_listener(a, Listener::CarRead { dest: a });
        assert_eq!(g.take_unseen(early), ValSet::singleton(F));
        g.add_val(a, T);
        let late = g.add_listener(a, Listener::CarRead { dest: a });
        // Each listener keeps its own position in the node's log.
        assert_eq!(g.take_unseen(late), [T, F].into_iter().collect());
        assert_eq!(g.take_unseen(early), ValSet::singleton(T));
        assert!(g.take_unseen(early).is_empty());
        assert!(g.take_unseen(late).is_empty());
    }
}
