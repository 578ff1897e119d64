//! Function-granular incremental recheck: edit-to-report latency far
//! below a full-module recheck.
//!
//! An [`IncrementalSession`] repeatedly analyzes successive versions of
//! *one* module (the `localias watch` workload). Each call re-runs the
//! cheap module-level phases (parse, alias analysis, confine inference —
//! those stay whole-module), then replays the checker's wave schedule
//! *incrementally*: a function is re-checked only if it is **dirty**
//! (its canonical item text changed, or its static context — callee set,
//! scopes, parameters — changed) or sits in the **summary-change cone**
//! of a dirty function (a re-checked callee whose summary or interface
//! differs from the cached one dirties its callers, transitively; SCCs
//! dirty as a unit). Everything else is served from the per-module
//! function cache: cached errors (stored with item-relative sites, so
//! they survive node-id shifts) and the cached summary, translated into
//! the new run's location space.
//!
//! # Location translation
//!
//! Cached facts speak in the previous run's canonical [`Loc`]
//! representatives, which are not stable across runs: re-analyzing a
//! textually different module allocates and unifies locations in a
//! different order. The session therefore *anchors* location classes to
//! stable structural names — global/local variable storage and pointee
//! chains, struct fields, function signatures, confine/restrict scope
//! outcomes — and joins the previous and current anchor tables on their
//! keys to build a previous→current representative map. Keys derived
//! from a function's own body embed that function's item fingerprint, so
//! an edited function never contributes (possibly lying) anchors.
//! The map is pruned to a partial *bijection* with matching
//! strong-updatability on both sides: any previous representative that
//! maps to two current ones, shares a current one with another previous
//! representative, or flips its strong-update bit is dropped, and every
//! cached fact mentioning a dropped representative fails translation —
//! making its function dirty. Conservatism is therefore self-repairing:
//! whatever the anchors cannot prove unchanged gets re-checked.
//!
//! Every location a function's checker run can observe appears in its
//! cached artifacts or static signature (touched locations in the
//! summary's `out`, read-required ones in `first_req`, scope and
//! parameter locations in the signature), so a function whose artifacts
//! fully translate under the bijection sees checker inputs isomorphic to
//! its previous run — the replayed outcome is byte-identical to a fresh
//! one. This is additionally pinned by tests here and asserted per
//! iteration by the `watch` bench bin.
//!
//! Non-function items (globals, structs, externs) and the function *name
//! sequence* form the module **prelude**; any prelude change falls back
//! to a full recheck (everything dirty). A byte-identical source is
//! answered from the cached reports without even parsing.

use crate::callgraph::CallGraph;
use crate::flow::{check_wave_parallel, resolve_jobs, Mode, MODES};
use crate::fx::{FxHashMap, FxHashSet};
use crate::intra::{check_function, CheckContext, FunOutcome};
use crate::report::{LockError, LockReport};
use crate::summary::{Summaries, Summary};
use localias_alias::{FrozenLocs, Loc, Ty, VarKind};
use localias_ast::{fp, parse_module, pretty, FunDef, ItemKind, Module, NodeId, ParseError};
use localias_core::{Analysis, ConfineSite, SharedAnalysis};
use localias_obs as obs;
use std::collections::hash_map::Entry;
use std::sync::Arc;
use std::time::Instant;

/// Previous-run → current-run canonical representative map, dense over
/// the previous run's location indices ([`Loc`] is a small dense index,
/// so translation is an array read rather than a hash lookup).
struct LocMap {
    map: Vec<Option<Loc>>,
    /// Every mapped location maps to itself — the edit left the global
    /// allocation order untouched (the common single-function-edit case
    /// when the body's location count is unchanged), so translated
    /// artifacts can be reused without rebuilding.
    identity: bool,
}

impl LocMap {
    #[inline]
    fn get(&self, l: Loc) -> Option<Loc> {
        self.map.get(l.index()).copied().flatten()
    }
}

/// Execution statistics of one [`IncrementalSession::analyze`] call.
///
/// "Slots" count function×mode pairs: each defined function is checked
/// once per mode, so `slots == functions * 3` and
/// `rechecked + hits == slots` (except on a whole-module no-op hit,
/// where everything is a hit without per-function work).
#[derive(Debug, Clone, Default)]
pub struct IncrStats {
    /// Defined functions in the module.
    pub functions: usize,
    /// Function×mode slots this run had to account for.
    pub slots: usize,
    /// Slots actually re-checked (dirty functions plus their cone).
    pub rechecked: usize,
    /// Slots served from the function cache.
    pub hits: usize,
    /// Re-checked slots whose summary differed from the cached one.
    pub summary_changes: usize,
    /// The raw source was byte-identical: reports served without parsing.
    pub module_hit: bool,
    /// A previous state existed but the module prelude changed, forcing
    /// a full recheck.
    pub full_fallback: bool,
    /// No previous state existed (first analysis in the session).
    pub cold: bool,
    /// Wall-clock seconds parsing.
    pub parse_seconds: f64,
    /// Wall-clock seconds in the module-level analyses (alias + confine
    /// inference) and anchor extraction.
    pub analysis_seconds: f64,
    /// Wall-clock seconds in the three incremental check passes — the
    /// phase the function cache accelerates.
    pub check_seconds: f64,
    /// Wall-clock seconds for the whole call.
    pub total_seconds: f64,
}

/// The result of one incremental analysis: the three mode reports (in
/// [`MODES`] order) and the run's statistics.
#[derive(Debug, Clone)]
pub struct IncrOutcome {
    /// Per-mode lock reports, byte-identical to from-scratch checking.
    pub reports: [LockReport; 3],
    /// What the incremental engine did to produce them.
    pub stats: IncrStats,
}

// ---------------------------------------------------------------------
// Item index: per-item fingerprints, id ranges, and the module prelude.
// ---------------------------------------------------------------------

/// One defined function's identity in the current parse.
struct FunItem {
    /// Domain-separated fingerprint of the item's canonical text.
    fp: u128,
    /// First node id allocated inside the item (inclusive).
    base: u32,
}

/// Per-parse index of the module's items.
///
/// The parser allocates node ids monotonically and constructs each item
/// node *after* its children, so the ids of item `k` are exactly the
/// contiguous range `(root id of item k-1, root id of item k]`. That
/// contiguity is what lets cached error sites be stored item-relative
/// (`site - base`) and survive edits that shift later items' ids.
struct ItemIndex {
    /// Fingerprint of the prelude: every non-function item's canonical
    /// text plus the sequence of function *names* (bodies excluded).
    prelude_fp: u128,
    /// Defined functions by name (for duplicates, the later definition
    /// wins — matching the checker's name-keyed function map).
    funs: FxHashMap<String, FunItem>,
    /// `(base, root, name)` per function item, sorted by `base`, for
    /// node-id → owning-function lookup.
    ranges: Vec<(u32, u32, String)>,
    /// Function names defined more than once (never cache-eligible).
    dups: FxHashSet<String>,
}

impl ItemIndex {
    fn build(m: &Module) -> ItemIndex {
        let item_domain = format!("incr-item;v{};", fp::ANALYSIS_VERSION);
        let prelude_domain = format!("incr-prelude;v{};", fp::ANALYSIS_VERSION);
        let mut prelude = String::new();
        let mut funs = FxHashMap::default();
        let mut ranges = Vec::new();
        let mut dups = FxHashSet::default();
        let mut base = 0u32;
        for item in &m.items {
            let root = match &item.kind {
                ItemKind::Struct(s) => s.id.0,
                ItemKind::Global(g) => g.id.0,
                ItemKind::Extern(e) => e.id.0,
                ItemKind::Fun(f) => f.id.0,
            };
            if let ItemKind::Fun(f) = &item.kind {
                let ifp = fp::fingerprint(&item_domain, &pretty::print_item(item));
                let name = f.name.name.to_string();
                prelude.push_str("fun:");
                prelude.push_str(&name);
                prelude.push(';');
                if funs
                    .insert(name.clone(), FunItem { fp: ifp, base })
                    .is_some()
                {
                    dups.insert(name.clone());
                }
                ranges.push((base, root, name));
            } else {
                prelude.push_str(&pretty::print_item(item));
            }
            base = root + 1;
        }
        ItemIndex {
            prelude_fp: fp::fingerprint(&prelude_domain, &prelude),
            funs,
            ranges,
            dups,
        }
    }

    /// The function item whose id range contains `id`, with its base.
    fn owner_of(&self, id: NodeId) -> Option<(&str, u32)> {
        let i = self.ranges.partition_point(|&(_, root, _)| root < id.0);
        let (base, root, name) = self.ranges.get(i)?;
        (*base <= id.0 && id.0 <= *root).then_some((name.as_str(), *base))
    }

    /// A stable per-function anchor tag: the name plus the item
    /// fingerprint for defined functions (so an edited function's
    /// body-derived anchors never join across the edit), or `name:ext`
    /// for extern/undefined ones (gated by the prelude instead).
    fn fun_tag(&self, name: &str) -> String {
        match self.funs.get(name) {
            Some(fi) => format!("{name}:{:032x}", fi.fp),
            None => format!("{name}:ext"),
        }
    }
}

// ---------------------------------------------------------------------
// Anchors: stable structural names for location classes.
// ---------------------------------------------------------------------

/// Anchor key → (canonical representative, strong-updatable bit).
type Anchors = FxHashMap<String, (Loc, bool)>;

struct AnchorBuilder<'a> {
    analysis: &'a Analysis,
    frozen: &'a FrozenLocs,
    map: Anchors,
    /// Keys that resolved to two different representatives — ambiguous,
    /// so they contribute nothing (in either direction).
    poisoned: FxHashSet<String>,
}

/// Longest pointee chain an anchor follows (`x`, `*x`, `**x`, …). Bounds
/// the walk on cyclic content types; deeper structure simply goes
/// unanchored (conservatively dirtying whoever depends on it).
const CHAIN_DEPTH: usize = 6;

impl AnchorBuilder<'_> {
    fn add(&mut self, key: String, loc: Loc) {
        if self.poisoned.contains(&key) {
            return;
        }
        let rep = self.frozen.find(loc);
        let strong = self.frozen.strong_updatable(rep);
        match self.map.entry(key) {
            Entry::Occupied(e) => {
                if e.get().0 != rep {
                    let (key, _) = e.remove_entry();
                    self.poisoned.insert(key);
                }
            }
            Entry::Vacant(e) => {
                e.insert((rep, strong));
            }
        }
    }

    /// Anchors the pointee chain hanging off `start`'s content:
    /// `{prefix}*`, `{prefix}**`, … for as long as the content types keep
    /// dereferencing.
    fn chain(&mut self, prefix: &str, start: Loc) {
        let mut key = prefix.to_string();
        let mut cur = start;
        for _ in 0..CHAIN_DEPTH {
            match self.analysis.state.locs.content_const(cur) {
                Ty::Ref(next) => {
                    let next = *next;
                    key.push('*');
                    self.add(key.clone(), next);
                    cur = next;
                }
                _ => break,
            }
        }
    }

    /// Anchors a value type: if it is a pointer, `{prefix}*` names the
    /// pointee and the chain continues from there.
    fn value(&mut self, prefix: &str, ty: &Ty) {
        if let Ty::Ref(p) = ty {
            let key = format!("{prefix}*");
            self.add(key.clone(), *p);
            self.chain(&key, *p);
        }
    }
}

/// Extracts the anchor table of one (frozen) analysis.
fn build_anchors(analysis: &Analysis, frozen: &FrozenLocs, items: &ItemIndex) -> Anchors {
    let mut b = AnchorBuilder {
        analysis,
        frozen,
        map: Anchors::default(),
        poisoned: FxHashSet::default(),
    };

    // Variables: storage location (if addressed) plus the value's pointee
    // chain. Shadowed same-named bindings are disambiguated by their
    // (deterministic, program-order) occurrence index.
    let mut occ: FxHashMap<(String, String), usize> = FxHashMap::default();
    for v in &analysis.state.vars {
        let fun_key = v.fun.clone().unwrap_or_default();
        let fun_tag = match &v.fun {
            Some(f) => items.fun_tag(f),
            None => String::new(),
        };
        let k = occ.entry((fun_key, v.name.clone())).or_insert(0);
        let prefix = format!("v:{fun_tag}:{}#{k}", v.name);
        *k += 1;
        if let VarKind::Addressed(l) = v.kind {
            let key = format!("{prefix}@");
            b.add(key.clone(), l);
            b.chain(&key, l);
        }
        b.value(&prefix, &v.ty);
    }

    // Struct fields: `(struct, field)` keys are globally unique.
    for ((s, f), &l) in &analysis.state.fields {
        let key = format!("f:{s}.{f}@");
        b.add(key.clone(), l);
        b.chain(&key, l);
    }

    // Function signatures: parameter and return pointee chains.
    for (name, sig) in &analysis.state.funs {
        let tag = items.fun_tag(name);
        for (i, ty) in sig.params.iter().enumerate() {
            b.value(&format!("s:{tag}:{i}"), ty);
        }
        b.value(&format!("s:{tag}:r"), &sig.ret);
    }

    // Confine outcomes: `(ρ, ρ')` keyed by the owning function's tag and
    // the item-relative site.
    for c in &analysis.confines {
        let Some((rho, rho_p)) = c.locs else { continue };
        let site_id = match c.site {
            ConfineSite::Range { block, .. } => block,
            ConfineSite::Stmt(at) => at,
        };
        let Some((owner, base)) = items.owner_of(site_id) else {
            continue;
        };
        let tag = items.fun_tag(owner);
        let key = match c.site {
            ConfineSite::Range { block, start, end } => {
                format!("c:{tag}:{}:{start}:{end}", block.0 - base)
            }
            ConfineSite::Stmt(at) => format!("cs:{tag}:{}", at.0 - base),
        };
        b.add(format!("{key}:r"), rho);
        b.add(format!("{key}:p"), rho_p);
    }

    // Restrict outcomes and let-or-restrict candidates, same keying.
    for r in &analysis.restricts {
        let Some((rho, rho_p)) = r.locs else { continue };
        let Some((owner, base)) = items.owner_of(r.at) else {
            continue;
        };
        let key = format!("r:{}:{}:{}", items.fun_tag(owner), r.at.0 - base, r.name);
        b.add(format!("{key}:r"), rho);
        b.add(format!("{key}:p"), rho_p);
    }
    for c in &analysis.candidates {
        let Some((rho, rho_p)) = c.locs else { continue };
        let Some((owner, base)) = items.owner_of(c.at) else {
            continue;
        };
        let key = format!("d:{}:{}:{}", items.fun_tag(owner), c.at.0 - base, c.name);
        b.add(format!("{key}:r"), rho);
        b.add(format!("{key}:p"), rho_p);
    }

    b.map
}

/// Joins two anchor tables into a previous→current representative map,
/// pruned to a partial bijection with matching strong-update bits.
///
/// The prune is a symmetric property of the key join (not of iteration
/// order): a previous representative is dropped iff some pair of its
/// keys disagrees on the target, some other previous representative
/// shares a target with it, or any of its keys flips the
/// strong-updatable bit.
fn build_locmap(prev: &Anchors, new: &Anchors) -> LocMap {
    let pmax = prev
        .values()
        .map(|&(l, _)| l.index() + 1)
        .max()
        .unwrap_or(0);
    let nmax = new.values().map(|&(l, _)| l.index() + 1).max().unwrap_or(0);
    let mut fwd: Vec<Option<Loc>> = vec![None; pmax];
    let mut bwd: Vec<Option<Loc>> = vec![None; nmax];
    let mut bad = vec![false; pmax];
    for (key, &(p, p_strong)) in prev {
        let Some(&(n, n_strong)) = new.get(key) else {
            continue;
        };
        if p_strong != n_strong {
            bad[p.index()] = true;
            continue;
        }
        match fwd[p.index()] {
            Some(existing) => {
                if existing != n {
                    bad[p.index()] = true;
                }
            }
            None => {
                fwd[p.index()] = Some(n);
                match bwd[n.index()] {
                    Some(other) => {
                        bad[p.index()] = true;
                        bad[other.index()] = true;
                    }
                    None => bwd[n.index()] = Some(p),
                }
            }
        }
    }
    let mut identity = true;
    for (i, slot) in fwd.iter_mut().enumerate() {
        if bad[i] {
            *slot = None;
        } else if let Some(n) = *slot {
            identity &= n.index() == i;
        }
    }
    LocMap { map: fwd, identity }
}

// ---------------------------------------------------------------------
// Static signatures: everything but the body text and callee summaries.
// ---------------------------------------------------------------------

/// How a call from the signature's owner to one callee resolves.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum DepKind {
    /// The callee's published summary is applied (schedule-ordered dep).
    Summary,
    /// The callee is cyclic and scheduled later: the call havocs.
    Havoc,
    /// Acyclic later-scheduled callee: the call has no effect.
    NoEffect,
}

/// The confine/restrict scopes owned by one function, item-relative.
#[derive(Debug, Clone, PartialEq, Eq, Default)]
struct ScopeSig {
    /// `(block - base, start, end, ρ, ρ')` per range scope.
    ranges: Vec<(u32, usize, usize, Loc, Loc)>,
    /// `(stmt - base, ρ, ρ')` per statement scope.
    stmts: Vec<(u32, Loc, Loc)>,
}

/// The graph-derived half of a function's static signature — a function
/// of the module alone, so one computation serves all three modes.
#[derive(Debug, PartialEq, Eq)]
struct GraphSig {
    /// Per-callee resolution kinds, in callee order.
    deps: Vec<(String, DepKind)>,
    /// `(is_cyclic, is_self_recursive)` of the owner itself.
    cyclic: (bool, bool),
}

/// Everything a function's check reads besides its own body and its
/// callees' summaries. Two runs in which a function's item fingerprint
/// and (translated) static signature agree — and whose consumed callee
/// summaries agree — produce identical outcomes for it.
#[derive(Debug, Clone, PartialEq, Eq)]
struct StaticSig {
    /// How the function sits in the call graph (shared across modes).
    graph: Arc<GraphSig>,
    /// Scopes the checker copies lock state across.
    scope: ScopeSig,
    /// `(ρ' pointee, restrict)` per parameter — the owner's *interface*:
    /// callers build their retarget maps from this.
    params: Vec<(Option<Loc>, bool)>,
}

/// Computes every function's graph signature, once per analyzed module.
fn compute_graph_sigs(graph: &CallGraph) -> Vec<Arc<GraphSig>> {
    (0..graph.len())
        .map(|v| {
            let deps = graph
                .callees(v)
                .iter()
                .map(|&c| {
                    let kind = if graph.uses_summary(v, c) {
                        DepKind::Summary
                    } else if graph.is_cyclic(c) {
                        DepKind::Havoc
                    } else {
                        DepKind::NoEffect
                    };
                    (graph.name(c).to_string(), kind)
                })
                .collect();
            Arc::new(GraphSig {
                deps,
                cyclic: (graph.is_cyclic(v), graph.is_self_recursive(v)),
            })
        })
        .collect()
}

/// Computes every function's static signature for one analysis's
/// context. Signatures are mode-independent (the mode only gates checker
/// behaviour), so one computation serves every mode sharing the
/// analysis — `NoConfine` and `AllStrong` consume the same vector.
fn compute_sigs(
    cx: &CheckContext<'_>,
    items: &ItemIndex,
    graph_sigs: &[Arc<GraphSig>],
) -> Vec<Arc<StaticSig>> {
    let _span = obs::span!("incr.mode_sigs");
    let mut sigs: Vec<StaticSig> = graph_sigs
        .iter()
        .map(|g| StaticSig {
            graph: g.clone(),
            scope: ScopeSig::default(),
            params: Vec::new(),
        })
        .collect();
    for (v, sig) in sigs.iter_mut().enumerate() {
        sig.params = cx.params[v]
            .iter()
            .map(|i| (i.rho_p.map(|l| cx.frozen.find(l)), i.restrict))
            .collect();
    }
    let node_of = |id: NodeId| -> Option<(usize, u32)> {
        let (owner, base) = items.owner_of(id)?;
        Some((cx.graph.node(owner)?, base))
    };
    for (&block, scopes) in &cx.range_scopes {
        let Some((v, base)) = node_of(block) else {
            continue;
        };
        for sc in scopes {
            sigs[v].scope.ranges.push((
                block.0 - base,
                sc.start,
                sc.end,
                cx.frozen.find(sc.rho),
                cx.frozen.find(sc.rho_p),
            ));
        }
    }
    for (&at, &(rho, rho_p)) in &cx.stmt_scopes {
        let Some((v, base)) = node_of(at) else {
            continue;
        };
        sigs[v]
            .scope
            .stmts
            .push((at.0 - base, cx.frozen.find(rho), cx.frozen.find(rho_p)));
    }
    for sig in &mut sigs {
        sig.scope.ranges.sort_unstable();
        sig.scope.stmts.sort_unstable();
    }
    sigs.into_iter().map(Arc::new).collect()
}

// -- translation helpers ----------------------------------------------

#[inline]
fn tr_loc(map: &LocMap, l: Loc) -> Option<Loc> {
    map.get(l)
}

fn tr_summary(map: &LocMap, s: &Arc<Summary>) -> Option<Arc<Summary>> {
    if map.identity {
        // Every location is its own counterpart; the summary only fails
        // to translate if a location fell out of the map entirely.
        let ok = s.first_req.iter().all(|&(l, _, _)| map.get(l).is_some())
            && s.out.iter().all(|&(l, _)| map.get(l).is_some());
        return ok.then(|| s.clone());
    }
    let mut first_req = Vec::with_capacity(s.first_req.len());
    for &(l, st, op) in &s.first_req {
        first_req.push((tr_loc(map, l)?, st, op));
    }
    let mut out = Vec::with_capacity(s.out.len());
    for &(l, st) in &s.out {
        out.push((tr_loc(map, l)?, st));
    }
    // `out` is canonically sorted by location in each run's own space.
    out.sort_unstable_by_key(|&(l, _)| l);
    Some(Arc::new(Summary {
        first_req,
        out,
        havocked: s.havocked,
    }))
}

/// Compares a cached parameter interface (translated) against the
/// current one without materializing the translation. `None` means a
/// cached location no longer translates (treated as changed).
fn tr_params_eq(
    map: &LocMap,
    prev: &[(Option<Loc>, bool)],
    new: &[(Option<Loc>, bool)],
) -> Option<bool> {
    if prev.len() != new.len() {
        return Some(false);
    }
    for (&(pl, pr), &(nl, nr)) in prev.iter().zip(new) {
        if pr != nr {
            return Some(false);
        }
        match (pl, nl) {
            (None, None) => {}
            (Some(pl), Some(nl)) => {
                if tr_loc(map, pl)? != nl {
                    return Some(false);
                }
            }
            _ => return Some(false),
        }
    }
    Some(true)
}

fn tr_scope(map: &LocMap, s: &ScopeSig) -> Option<ScopeSig> {
    let mut ranges = s
        .ranges
        .iter()
        .map(|&(b, st, en, rho, rho_p)| Some((b, st, en, tr_loc(map, rho)?, tr_loc(map, rho_p)?)))
        .collect::<Option<Vec<_>>>()?;
    let mut stmts = s
        .stmts
        .iter()
        .map(|&(at, rho, rho_p)| Some((at, tr_loc(map, rho)?, tr_loc(map, rho_p)?)))
        .collect::<Option<Vec<_>>>()?;
    ranges.sort_unstable();
    stmts.sort_unstable();
    Some(ScopeSig { ranges, stmts })
}

/// Whether a cached scope signature, translated, equals the current one.
/// Singleton lists compare in place (translation can't reorder one
/// element); longer ones go through [`tr_scope`] for the canonical sort.
fn scope_matches(map: &LocMap, prev: &ScopeSig, new: &ScopeSig) -> bool {
    if prev.ranges.len() != new.ranges.len() || prev.stmts.len() != new.stmts.len() {
        return false;
    }
    if prev.ranges.len() > 1 || prev.stmts.len() > 1 {
        return tr_scope(map, prev).as_ref() == Some(new);
    }
    prev.ranges
        .iter()
        .zip(&new.ranges)
        .all(|(&(b, st, en, rho, rho_p), n)| {
            tr_loc(map, rho)
                .zip(tr_loc(map, rho_p))
                .is_some_and(|(rho, rho_p)| (b, st, en, rho, rho_p) == *n)
        })
        && prev
            .stmts
            .iter()
            .zip(&new.stmts)
            .all(|(&(at, rho, rho_p), n)| {
                tr_loc(map, rho)
                    .zip(tr_loc(map, rho_p))
                    .is_some_and(|(rho, rho_p)| (at, rho, rho_p) == *n)
            })
}

// ---------------------------------------------------------------------
// The per-mode function cache and incremental wave walk.
// ---------------------------------------------------------------------

/// One function's cached check artifacts, in the run-that-produced-them's
/// location space, with item-relative error sites.
struct CachedFun {
    /// Errors with `site` rebased to `site - item base`. Item-relative
    /// sites are stable across cache generations, so hit entries share
    /// one allocation with their predecessor.
    errors: Arc<Vec<LockError>>,
    /// Counted lock sites.
    sites: usize,
    /// The published summary.
    summary: Arc<Summary>,
    /// The static signature the artifacts were computed under.
    sig: Arc<StaticSig>,
}

/// Per-mode function cache of one module version, indexed by call-graph
/// node id. Node ids are indices into the *sorted function name list*,
/// which the prelude fingerprint pins — any change to the name sequence
/// forces a full fallback before the cache is consulted — so an id means
/// the same function in consecutive runs.
#[derive(Default)]
struct ModeCache {
    funs: Vec<Option<CachedFun>>,
}

/// The retained state between [`IncrementalSession::analyze`] calls.
struct PrevState {
    raw_fp: u128,
    prelude_fp: u128,
    fun_count: usize,
    base_anchors: Anchors,
    confine_anchors: Anchors,
    /// Item fingerprint per function name, for call-graph revalidation.
    item_fps: FxHashMap<String, u128>,
    /// The call graph and its signatures — functions of the name list
    /// and the callee edges only, so they survive any edit that leaves
    /// every function's callee set intact (verified per changed body).
    graph: Arc<CallGraph>,
    graph_sigs: Arc<Vec<Arc<GraphSig>>>,
    modes: [ModeCache; 3],
    reports: [LockReport; 3],
}

/// A previous cache entry translated into the current run's space. Holds
/// a borrow of the cache entry rather than cloned artifacts — a hit
/// copies nothing until the new cache is assembled.
struct Prior<'a> {
    entry: &'a CachedFun,
    summary: Option<Arc<Summary>>,
    /// Whether the cached interface (translated) equals the current one;
    /// `None` when the cached one no longer translates.
    iface_same: Option<bool>,
    clean: bool,
}

struct ModeRun {
    report: LockReport,
    cache: ModeCache,
    rechecked: usize,
    hits: usize,
    summary_changes: usize,
}

/// Runs one mode's check pass incrementally against the (optional)
/// previous cache and location map.
fn run_mode<'p>(
    cx: &CheckContext<'_>,
    by_name: &FxHashMap<&str, &FunDef>,
    threads: usize,
    items: &ItemIndex,
    sigs: &[Arc<StaticSig>],
    prev: Option<(&'p ModeCache, &LocMap, &[bool])>,
) -> ModeRun {
    let n = cx.graph.len();

    // Translate what the previous run knew into this run's space and
    // decide static cleanliness per function.
    let tr_span = obs::span!("incr.mode_translate");
    let mut prior: Vec<Option<Prior<'p>>> = (0..n).map(|_| None).collect();
    if let Some((cache, locmap, fp_same)) = prev {
        for (v, slot) in prior.iter_mut().enumerate() {
            let Some(e) = cache.funs.get(v).and_then(|e| e.as_ref()) else {
                continue;
            };
            // A location-free summary translates to itself: share the
            // cached allocation.
            let summary = if e.summary.first_req.is_empty() && e.summary.out.is_empty() {
                Some(e.summary.clone())
            } else {
                tr_summary(locmap, &e.summary)
            };
            // Graph signatures are `Arc`-shared across runs whenever the
            // call graph itself was revalidated and reused, making the
            // common case a pointer comparison.
            let graph_ok =
                Arc::ptr_eq(&e.sig.graph, &sigs[v].graph) || e.sig.graph == sigs[v].graph;
            let iface_same = tr_params_eq(locmap, &e.sig.params, &sigs[v].params);
            let clean = fp_same[v]
                && graph_ok
                && iface_same == Some(true)
                && scope_matches(locmap, &e.sig.scope, &sigs[v].scope)
                && summary.is_some();
            *slot = Some(Prior {
                entry: e,
                summary,
                iface_same,
                clean,
            });
        }
    }

    drop(tr_span);

    // Seed: statically unclean functions are dirty; SCCs dirty as a unit
    // (all members re-run with identical fixpoint context).
    let wave_span = obs::span!("incr.mode_waves");
    let mut dirty: Vec<bool> = prior
        .iter()
        .map(|p| !p.as_ref().is_some_and(|p| p.clean))
        .collect();
    for scc in cx.graph.sccs() {
        if scc.len() > 1 && scc.iter().any(|&v| dirty[v]) {
            for &v in scc {
                dirty[v] = true;
            }
        }
    }

    let mut summary_changed = vec![false; n];
    let mut iface_changed = vec![false; n];
    let mut outcomes: Vec<Option<FunOutcome>> = (0..n).map(|_| None).collect();
    // Set once a node's wave has completed; a processed node without an
    // outcome is a cache hit served from its prior.
    let mut processed = vec![false; n];
    let mut summaries: Summaries = Summaries::default();
    // Per-SCC recheck decisions, wave-stamped so one allocation serves
    // the whole walk.
    let mut group_stamp: Vec<u32> = vec![0; cx.graph.scc_count()];
    let mut group_run: Vec<bool> = vec![false; cx.graph.scc_count()];
    let (mut rechecked, mut hits, mut summary_changes) = (0usize, 0usize, 0usize);

    for (wave_no, wave) in cx.graph.waves().iter().enumerate() {
        let stamp = wave_no as u32 + 1;
        // Recheck decision per SCC group: a member is re-checked if any
        // member is dirty or consumes a changed earlier-wave summary or
        // interface. (Within-wave summary deps are exactly same-SCC
        // deps — two distinct SCCs in one wave cannot have an edge — and
        // those are covered by the group-wide decision.)
        for &v in wave {
            let scc = cx.graph.scc_of(v);
            if group_stamp[scc] != stamp {
                group_stamp[scc] = stamp;
                group_run[scc] = false;
            }
            if group_run[scc] {
                continue;
            }
            let cone =
                cx.graph.deps(v).iter().any(|&d| {
                    cx.graph.scc_of(d) != scc && (summary_changed[d] || iface_changed[d])
                });
            if dirty[v] || cone {
                group_run[scc] = true;
            }
        }
        let to_run: Vec<usize> = wave
            .iter()
            .copied()
            .filter(|&v| group_run[cx.graph.scc_of(v)])
            .collect();

        // Publish exactly the summaries this wave's checks can consume:
        // the re-checked functions' earlier-wave dependencies. The full
        // checker's map holds *all* earlier waves at this point, but a
        // check only ever reads its own summary deps, and a same-wave
        // (same-SCC) dep is absent from both maps — so every lookup
        // resolves identically. An unprocessed dep is same-wave by the
        // SCC argument above.
        for &v in &to_run {
            for &d in cx.graph.deps(v) {
                let name = cx.graph.name(d);
                if summaries.contains_key(name) {
                    continue;
                }
                if let Some(out) = &outcomes[d] {
                    summaries.insert(name.to_string(), out.summary.clone());
                } else if processed[d] {
                    let p = prior[d].as_ref().expect("processed hit has a prior");
                    let s = p.summary.clone().expect("clean function has a summary");
                    summaries.insert(name.to_string(), s);
                }
            }
        }

        if threads <= 1 || to_run.len() <= 1 {
            for &v in &to_run {
                if let Some(f) = by_name.get(cx.graph.name(v)) {
                    outcomes[v] = Some(check_function(cx, &summaries, f));
                }
            }
        } else {
            for (v, out, _secs) in check_wave_parallel(cx, &summaries, by_name, &to_run, threads) {
                outcomes[v] = Some(out);
            }
        }
        rechecked += to_run.len();
        hits += wave.len() - to_run.len();

        for &v in wave {
            processed[v] = true;
            if !group_run[cx.graph.scc_of(v)] {
                continue;
            }
            let Some(out) = outcomes[v].as_ref() else {
                continue;
            };
            let p = prior[v].as_ref();
            summary_changed[v] = match p.and_then(|p| p.summary.as_ref()) {
                Some(t) => **t != *out.summary,
                None => true,
            };
            // The *stat* only counts divergence from an actually
            // cached summary — a cold run changes nothing.
            if summary_changed[v] && p.is_some_and(|p| p.summary.is_some()) {
                summary_changes += 1;
            }
            iface_changed[v] = !matches!(p.and_then(|p| p.iface_same), Some(true));
        }
    }

    drop(wave_span);

    // Assemble the report in schedule order (byte-identical to the full
    // checker at any thread count) — hit errors are un-rebased into the
    // current parse's id space on the way — then fold everything into
    // the new cache, where a hit entry inherits its predecessor's
    // (unchanged) item-relative error allocation outright.
    let finish_span = obs::span!("incr.mode_finish");
    let mut report = LockReport::default();
    for &v in cx.graph.order() {
        if let Some(out) = &outcomes[v] {
            report.errors.extend(out.errors.iter().cloned());
            report.sites += out.sites;
        } else if let Some(p) = prior[v].as_ref().filter(|p| p.clean) {
            if !p.entry.errors.is_empty() {
                let base = items.funs[cx.graph.name(v)].base;
                report
                    .errors
                    .extend(p.entry.errors.iter().map(|e| LockError {
                        site: NodeId(e.site.0 + base),
                        ..e.clone()
                    }));
            }
            report.sites += p.entry.sites;
        }
    }
    let no_errors: Arc<Vec<LockError>> = Arc::new(Vec::new());
    let mut cache = ModeCache {
        funs: Vec::with_capacity(n),
    };
    for (v, out) in outcomes.into_iter().enumerate() {
        let entry = match (out, prior[v].take()) {
            (Some(out), _) => {
                let Some(fi) = items.funs.get(cx.graph.name(v)) else {
                    cache.funs.push(None);
                    continue;
                };
                let errors = if out.errors.is_empty() {
                    no_errors.clone()
                } else {
                    let base = fi.base;
                    Arc::new(
                        out.errors
                            .into_iter()
                            .map(|e| LockError {
                                site: NodeId(e.site.0 - base),
                                ..e
                            })
                            .collect(),
                    )
                };
                Some(CachedFun {
                    errors,
                    sites: out.sites,
                    summary: out.summary,
                    sig: sigs[v].clone(),
                })
            }
            (None, Some(p)) if p.clean => Some(CachedFun {
                errors: p.entry.errors.clone(),
                sites: p.entry.sites,
                summary: p.summary.expect("clean function has a summary"),
                sig: sigs[v].clone(),
            }),
            _ => None,
        };
        cache.funs.push(entry);
    }

    drop(finish_span);

    ModeRun {
        report,
        cache,
        rechecked,
        hits,
        summary_changes,
    }
}

// ---------------------------------------------------------------------
// The session.
// ---------------------------------------------------------------------

/// A long-lived incremental analysis session over successive versions of
/// one module (the engine behind `localias watch` and the `watch` bench
/// bin).
///
/// # Example
///
/// ```
/// use localias_cqual::incremental::IncrementalSession;
///
/// let v1 = "lock l;\nvoid f() { spin_lock(&l); spin_unlock(&l); }\nvoid g() { f(); }\n";
/// let v2 = "lock l;\nvoid f() { spin_lock(&l); spin_unlock(&l); }\nvoid g() { int x = 1; f(); }\n";
/// let mut session = IncrementalSession::new("m", 1);
/// let cold = session.analyze(v1)?;
/// assert!(cold.stats.cold);
/// let warm = session.analyze(v2)?;
/// // Only `g` was re-checked; `f` was served from the function cache.
/// assert!(warm.stats.rechecked < warm.stats.slots);
/// # Ok::<(), localias_ast::ParseError>(())
/// ```
pub struct IncrementalSession {
    name: String,
    intra_jobs: usize,
    prev: Option<PrevState>,
}

impl IncrementalSession {
    /// Creates a session for a module named `name`, checking with up to
    /// `intra_jobs` worker threads per wave (`0` = one per core). The
    /// reports are byte-identical for every `intra_jobs` value.
    pub fn new(name: &str, intra_jobs: usize) -> IncrementalSession {
        IncrementalSession {
            name: name.to_string(),
            intra_jobs,
            prev: None,
        }
    }

    /// Analyzes one version of the module source, reusing whatever the
    /// previous version's artifacts still prove.
    pub fn analyze(&mut self, source: &str) -> Result<IncrOutcome, ParseError> {
        let _span = obs::span!("incr.analyze");
        let t_all = Instant::now();
        let raw_domain = format!("incr-raw;v{};", fp::ANALYSIS_VERSION);
        let raw_fp = fp::fingerprint(&raw_domain, source);

        // Byte-identical source: node ids cannot have moved, so the
        // cached reports are the answer.
        if let Some(prev) = &self.prev {
            if prev.raw_fp == raw_fp {
                obs::count(obs::Counter::IncrModuleHits, 1);
                let functions = prev.fun_count;
                return Ok(IncrOutcome {
                    reports: prev.reports.clone(),
                    stats: IncrStats {
                        functions,
                        slots: functions * MODES.len(),
                        hits: functions * MODES.len(),
                        module_hit: true,
                        total_seconds: t_all.elapsed().as_secs_f64(),
                        ..IncrStats::default()
                    },
                });
            }
        }

        let t_parse = Instant::now();
        let module = parse_module(&self.name, source)?;
        let parse_seconds = t_parse.elapsed().as_secs_f64();
        let items = ItemIndex::build(&module);

        let cold = self.prev.is_none();
        let mut full_fallback = false;
        let prev = self.prev.take().filter(|p| {
            let keep = p.prelude_fp == items.prelude_fp;
            full_fallback = !keep;
            keep
        });
        if full_fallback {
            obs::count(obs::Counter::IncrFullFallbacks, 1);
        }

        // Module-level phases: alias analysis and confine inference stay
        // whole-module; the function cache accelerates the check phase.
        let t_analysis = Instant::now();
        let mut shared = SharedAnalysis::new(&module);
        let ((base_a, base_f), (conf_a, conf_f)) = shared.both_frozen();
        let base_anchors = build_anchors(base_a, base_f, &items);
        let confine_anchors = build_anchors(conf_a, conf_f, &items);
        let base_locmap = prev
            .as_ref()
            .map(|p| build_locmap(&p.base_anchors, &base_anchors));
        let confine_locmap = prev
            .as_ref()
            .map(|p| build_locmap(&p.confine_anchors, &confine_anchors));
        let analysis_seconds = t_analysis.elapsed().as_secs_f64();

        let threads = resolve_jobs(self.intra_jobs);
        let t_check = Instant::now();
        // One call graph and one context per *analysis*; `AllStrong`
        // re-tags the base context rather than rebuilding it. The graph
        // is a function of the name list (prelude-pinned) and the callee
        // edges, so the previous run's graph is reused verbatim when
        // every function either kept its fingerprint or demonstrably
        // kept its callee set.
        let setup_span = obs::span!("incr.check_setup");
        // Whether each function's canonical item text survived the edit
        // (indexed by call-graph node — valid for the previous *and* a
        // rebuilt graph, since node ids are indices into the
        // prelude-pinned sorted name list). Filled during the graph
        // validation pass below; recomputed if that pass bails early.
        let mut fp_same: Vec<bool> = Vec::new();
        let reused = prev.as_ref().and_then(|p| {
            if !items.dups.is_empty() || p.graph.len() != items.funs.len() {
                return None;
            }
            fp_same = vec![false; p.graph.len()];
            let mut ok = true;
            for f in module.functions() {
                let name = f.name.name.as_str();
                match (
                    p.graph.node(name),
                    items.funs.get(name),
                    p.item_fps.get(name),
                ) {
                    (Some(v), Some(fi), Some(&old)) => {
                        let same = fi.fp == old;
                        fp_same[v] = same;
                        if !same && !p.graph.callees_match(v, f) {
                            ok = false;
                        }
                    }
                    _ => ok = false,
                }
            }
            ok.then(|| (p.graph.clone(), p.graph_sigs.clone()))
        });
        let (graph, graph_sigs) = match reused {
            Some(pair) => pair,
            None => {
                let graph = Arc::new(CallGraph::build(&module));
                let sigs = Arc::new(compute_graph_sigs(&graph));
                (graph, sigs)
            }
        };
        let mut by_name: FxHashMap<&str, &FunDef> = FxHashMap::default();
        by_name.reserve(items.funs.len());
        by_name.extend(module.functions().map(|f| (f.name.name.as_str(), f)));
        let cx_base =
            CheckContext::new_shared(&module, base_a, base_f, Mode::NoConfine, graph.clone());
        let cx_conf =
            CheckContext::new_shared(&module, conf_a, conf_f, Mode::Confine, graph.clone());
        drop(setup_span);
        // Static signatures are mode-independent: one vector per
        // analysis, shared by `NoConfine` and `AllStrong`.
        let base_sigs = compute_sigs(&cx_base, &items, &graph_sigs);
        let conf_sigs = compute_sigs(&cx_conf, &items, &graph_sigs);
        // The validation pass fills `fp_same` on its fast path; redo it
        // against the graph actually in use if that pass bailed early
        // (rebuilt graph, duplicate definitions).
        if prev.is_some() && fp_same.len() != graph.len() {
            fp_same = (0..graph.len())
                .map(|v| {
                    let name = graph.name(v);
                    !items.dups.contains(name)
                        && match (
                            items.funs.get(name),
                            prev.as_ref().and_then(|p| p.item_fps.get(name)),
                        ) {
                            (Some(fi), Some(&old)) => fi.fp == old,
                            _ => false,
                        }
                })
                .collect();
        }
        let pm = |i: usize, locmap: &'_ Option<LocMap>| match (&prev, locmap) {
            (Some(p), Some(_)) => Some(&p.modes[i]),
            _ => None,
        };
        let r0 = run_mode(
            &cx_base,
            &by_name,
            threads,
            &items,
            &base_sigs,
            pm(0, &base_locmap).map(|c| (c, base_locmap.as_ref().expect("gated"), &fp_same[..])),
        );
        let r1 = run_mode(
            &cx_conf,
            &by_name,
            threads,
            &items,
            &conf_sigs,
            pm(1, &confine_locmap)
                .map(|c| (c, confine_locmap.as_ref().expect("gated"), &fp_same[..])),
        );
        let cx_all = cx_base.with_mode(Mode::AllStrong);
        let r2 = run_mode(
            &cx_all,
            &by_name,
            threads,
            &items,
            &base_sigs,
            pm(2, &base_locmap).map(|c| (c, base_locmap.as_ref().expect("gated"), &fp_same[..])),
        );
        let runs = vec![r0, r1, r2];
        let check_seconds = t_check.elapsed().as_secs_f64();

        let functions = module.functions().count();
        let mut stats = IncrStats {
            functions,
            slots: functions * MODES.len(),
            module_hit: false,
            full_fallback,
            cold,
            parse_seconds,
            analysis_seconds,
            check_seconds,
            ..IncrStats::default()
        };
        for run in &runs {
            stats.rechecked += run.rechecked;
            stats.hits += run.hits;
            stats.summary_changes += run.summary_changes;
        }
        obs::count(obs::Counter::IncrFunHits, stats.hits as u64);
        obs::count(obs::Counter::IncrFunRechecks, stats.rechecked as u64);
        obs::count(
            obs::Counter::IncrSummaryChanges,
            stats.summary_changes as u64,
        );

        let mut it = runs.into_iter();
        let (r0, r1, r2) = (
            it.next().expect("three mode runs"),
            it.next().expect("three mode runs"),
            it.next().expect("three mode runs"),
        );
        let reports = [r0.report.clone(), r1.report.clone(), r2.report.clone()];
        let item_fps = items
            .funs
            .into_iter()
            .map(|(name, fi)| (name, fi.fp))
            .collect();
        self.prev = Some(PrevState {
            raw_fp,
            prelude_fp: items.prelude_fp,
            fun_count: functions,
            base_anchors,
            confine_anchors,
            item_fps,
            graph,
            graph_sigs,
            modes: [r0.cache, r1.cache, r2.cache],
            reports: [r0.report, r1.report, r2.report],
        });

        stats.total_seconds = t_all.elapsed().as_secs_f64();
        Ok(IncrOutcome { reports, stats })
    }

    /// The module name the session analyzes under.
    pub fn name(&self) -> &str {
        &self.name
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::flow::check_modes;

    /// Full-pipeline reports for `source`, in [`MODES`] order.
    fn full_reports(source: &str) -> [LockReport; 3] {
        let m = parse_module("m", source).expect("parse");
        check_modes(&mut SharedAnalysis::new(&m))
    }

    /// Drives `sources` through a session at each thread count, asserting
    /// every incremental report byte-equals from-scratch checking, and
    /// returns the stats of the final step (from the jobs=1 run).
    fn assert_identical(sources: &[&str]) -> IncrStats {
        let mut last = None;
        for jobs in [1usize, 4] {
            let mut session = IncrementalSession::new("m", jobs);
            for (i, src) in sources.iter().enumerate() {
                let out = session.analyze(src).expect("parse");
                let want = full_reports(src);
                for (mi, (got, want)) in out.reports.iter().zip(&want).enumerate() {
                    assert_eq!(
                        got, want,
                        "step {i} mode {mi} jobs {jobs}: incremental != full"
                    );
                }
                if jobs == 1 {
                    last = Some(out.stats);
                }
            }
        }
        last.expect("at least one source")
    }

    const CHAIN_V1: &str = "lock l;\n\
        void leaf(int n) { int a = 1; }\n\
        void mid(int n) { leaf(n); }\n\
        void top(int n) { mid(n); }\n";

    #[test]
    fn cold_run_rechecks_everything() {
        let mut s = IncrementalSession::new("m", 1);
        let out = s.analyze(CHAIN_V1).expect("parse");
        assert!(out.stats.cold);
        assert_eq!(out.stats.rechecked, out.stats.slots);
        assert_eq!(out.stats.hits, 0);
    }

    #[test]
    fn byte_identical_source_is_a_module_hit() {
        let mut s = IncrementalSession::new("m", 1);
        s.analyze(CHAIN_V1).expect("parse");
        let out = s.analyze(CHAIN_V1).expect("parse");
        assert!(out.stats.module_hit);
        assert_eq!(out.reports, full_reports(CHAIN_V1));
    }

    #[test]
    fn whitespace_noop_edit_rechecks_zero_functions() {
        // Raw text differs (comments, blank lines), canonical form does
        // not: every function is statically clean, so nothing re-runs.
        let v2 = "lock l;\n\n// a comment\nvoid leaf(int n) { int a = 1; }\n\
            void mid(int n) { leaf(n); }\n\nvoid top(int n) { mid(n); }\n";
        let stats = assert_identical(&[CHAIN_V1, v2]);
        assert!(!stats.module_hit, "raw fingerprints differ");
        assert_eq!(stats.rechecked, 0, "no-op edit must recheck nothing");
        assert_eq!(stats.hits, stats.slots);
    }

    #[test]
    fn interior_edit_with_unchanged_summary_stops_the_cone() {
        // `leaf` changes body text but not its summary: only `leaf`
        // re-runs; `mid` and `top` are hits in every mode.
        let v2 = "lock l;\n\
            void leaf(int n) { int a = 2; int b = a + 1; }\n\
            void mid(int n) { leaf(n); }\n\
            void top(int n) { mid(n); }\n";
        let stats = assert_identical(&[CHAIN_V1, v2]);
        assert_eq!(stats.rechecked, 3, "one function × three modes");
        assert_eq!(stats.hits, stats.slots - 3);
        assert_eq!(stats.summary_changes, 0);
    }

    #[test]
    fn summary_change_propagates_to_transitive_callers() {
        // `leaf` now acquires the lock: its summary changes, which
        // dirties `mid`, whose summary change dirties `top`.
        let v2 = "lock l;\n\
            void leaf(int n) { spin_lock(&l); }\n\
            void mid(int n) { leaf(n); }\n\
            void top(int n) { mid(n); }\n";
        let stats = assert_identical(&[CHAIN_V1, v2]);
        assert_eq!(stats.rechecked, stats.slots, "whole cone re-runs");
        assert_eq!(stats.hits, 0);
        assert!(stats.summary_changes >= 3, "leaf changed in every mode");
    }

    #[test]
    fn edit_inside_an_scc_rechecks_the_whole_scc() {
        let v1 = "void a(int n) { if (n > 0) { b(n - 1); } }\n\
            void b(int n) { if (n > 0) { a(n - 1); } }\n\
            void solo(int n) { int x = 1; }\n";
        // Edit only `b`: the {a, b} SCC re-runs as a unit, `solo` hits.
        let v2 = "void a(int n) { if (n > 0) { b(n - 1); } }\n\
            void b(int n) { if (n > 1) { a(n - 2); } }\n\
            void solo(int n) { int x = 1; }\n";
        let stats = assert_identical(&[v1, v2]);
        assert_eq!(stats.rechecked, 6, "both SCC members × three modes");
        assert_eq!(stats.hits, 3, "solo × three modes");
    }

    #[test]
    fn signature_change_falls_back_via_the_prelude_or_cone() {
        // Turning `mid`'s parameter into a restrict pointer changes its
        // interface; `top` (its caller) must re-run too.
        let v1 = "lock locks[4];\n\
            extern void work();\n\
            void leaf(lock *restrict p) { spin_lock(p); work(); spin_unlock(p); }\n\
            void mid(int i) { leaf(&locks[i]); }\n\
            void top(int i) { mid(i); }\n";
        let v2 = "lock locks[4];\n\
            extern void work();\n\
            void leaf(lock *restrict p) { spin_lock(p); work(); spin_unlock(p); }\n\
            void mid(int i) { leaf(&locks[i]); leaf(&locks[i + 1]); }\n\
            void top(int i) { mid(i); }\n";
        assert_identical(&[v1, v2]);
    }

    #[test]
    fn prelude_change_forces_a_full_fallback() {
        let v2 = "lock l;\nint g;\n\
            void leaf(int n) { int a = 1; }\n\
            void mid(int n) { leaf(n); }\n\
            void top(int n) { mid(n); }\n";
        let stats = assert_identical(&[CHAIN_V1, v2]);
        assert!(stats.full_fallback);
        assert_eq!(stats.rechecked, stats.slots);
    }

    #[test]
    fn lock_pair_break_is_caught_incrementally() {
        // The confinable array idiom, then a broken variant acquiring
        // twice: the incremental report must track the full one exactly.
        let v1 = "lock arr[8];\n\
            extern void work();\n\
            void leaf(int n) { spin_lock(&arr[n]); work(); spin_unlock(&arr[n]); }\n\
            void mid(int n) { leaf(n); }\n\
            void top(int n) { mid(n); }\n";
        let v2 = "lock arr[8];\n\
            extern void work();\n\
            void leaf(int n) { spin_lock(&arr[n]); work(); spin_lock(&arr[n]); }\n\
            void mid(int n) { leaf(n); }\n\
            void top(int n) { mid(n); }\n";
        // And back: the cache from v2 must not leak stale facts into v1.
        assert_identical(&[v1, v2, v1]);
    }

    #[test]
    fn renaming_a_function_changes_the_prelude() {
        let v2 = "lock l;\n\
            void leaf2(int n) { int a = 1; }\n\
            void mid(int n) { leaf2(n); }\n\
            void top(int n) { mid(n); }\n";
        let stats = assert_identical(&[CHAIN_V1, v2]);
        assert!(stats.full_fallback, "function set changed");
    }

    #[test]
    fn item_index_ranges_cover_every_function_id() {
        let m = parse_module("m", CHAIN_V1).expect("parse");
        let items = ItemIndex::build(&m);
        for f in m.functions() {
            let (owner, base) = items.owner_of(f.id).expect("function id owned");
            assert_eq!(owner, f.name.name);
            assert!(base <= f.id.0);
            // The body's block id also resolves to the same function.
            let (owner2, _) = items.owner_of(f.body.id).expect("body id owned");
            assert_eq!(owner2, f.name.name);
        }
    }
}
