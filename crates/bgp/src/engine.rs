//! The message-driven BGP convergence engine.
//!
//! Routers exchange `Update`/`Withdraw` messages over the session table;
//! messages are processed strictly FIFO, so every run is deterministic.
//! The engine supports incremental reconvergence after link failures and
//! export-filter (misconfiguration) changes, and can record every eBGP
//! message *received by one designated observer AS* — the control-plane feed
//! the paper's ND-bgpigp algorithm consumes.
//!
//! # Flat substrate
//!
//! All hot-path state is indexed by a dense *prefix id* (pid), so
//! per-router RIBs are flat arrays indexed by pid instead of sorted maps
//! keyed by [`Prefix`] (whose inserts memmove O(prefixes) entries). The pid
//! space holds only the prefixes added so far — in practice the ones
//! originated — kept sorted: an engine routing toward the ten sensor
//! prefixes of a trial has ten-slot tables, so a copy-on-write break, the
//! restore that drops it and a longest-prefix-match scan all cost in
//! proportion to the prefixes in play, not to the topology.
//! [`Bgp::add_prefixes`] grows the space by merging the new prefixes in and
//! renaming existing state through a monotone old-pid → new-pid map, so
//! ascending pid always means ascending prefix and every pid-ordered walk,
//! FIFO order and path interning order is the same whatever the growth
//! history. Whole-internet convergence adds every prefix up front
//! (`Sim::new_parallel`), keeping that one-time sizing out of the
//! convergence itself.
//!
//! AS paths are interned into a shared [`PathPool`] — messages and stored
//! routes carry a `u32` path id — and per-session policy inputs (AS
//! membership, business relationship) are precomputed once, so the
//! message loop performs no topology lookups and no allocation per
//! message. Public accessors still speak [`Prefix`] and [`Route`];
//! routes are materialized on demand.

use std::collections::{BTreeSet, HashMap, VecDeque};
use std::net::Ipv4Addr;
use std::sync::Arc;

use netdiag_igp::{Igp, LinkState, SpfDelta};
use netdiag_obs::{names, RecorderHandle};
use netdiag_topology::{AsId, LinkId, LinkKind, PeerKind, Prefix, RouterId, Topology};

use crate::policy::{ExportDeny, ExportFilters};
use crate::route::{local_pref_for, AsPath, Route, RouteSource, LOCAL_PREF_ORIGINATED};
use crate::session::{Session, SessionId, SessionKind, SessionTable};
use crate::vecmap::VecMap;

/// Read-only routing context threaded through engine operations.
#[derive(Clone, Copy)]
pub struct Ctx<'a> {
    /// The static topology.
    pub topology: &'a Topology,
    /// Converged IGP state (must reflect `links`).
    pub igp: &'a Igp,
    /// Current link up/down state.
    pub links: &'a LinkState,
}

/// Dense prefix id: index into the engine's sorted prefix table.
type Pid = u32;

/// Sentinel for "no link" in a stored route.
const NO_LINK: u32 = u32::MAX;
/// Sentinel for "no session" (locally originated) in a stored route.
const NO_SESSION: u32 = u32::MAX;
/// Path id of the empty AS path (always interned first).
const PATH_EMPTY: u32 = 0;

/// [`RouteSource`] packed into one byte for [`StoredRoute`].
const SRC_ORIGINATED: u8 = 0;
const SRC_CUSTOMER: u8 = 1;
const SRC_PEER: u8 = 2;
const SRC_PROVIDER: u8 = 3;

fn pack_source(s: RouteSource) -> u8 {
    match s {
        RouteSource::Originated => SRC_ORIGINATED,
        RouteSource::External(PeerKind::Customer) => SRC_CUSTOMER,
        RouteSource::External(PeerKind::Peer) => SRC_PEER,
        RouteSource::External(PeerKind::Provider) => SRC_PROVIDER,
    }
}

fn unpack_source(v: u8) -> RouteSource {
    match v {
        SRC_ORIGINATED => RouteSource::Originated,
        SRC_CUSTOMER => RouteSource::External(PeerKind::Customer),
        SRC_PEER => RouteSource::External(PeerKind::Peer),
        _ => RouteSource::External(PeerKind::Provider),
    }
}

/// Interned AS paths, shared by every router of an engine.
///
/// Append-only: path ids stay valid for the lifetime of the pool, so a
/// snapshot restored over a grown pool still resolves every id. Lives
/// behind an `Arc` with copy-on-write mutation, so engine clones share it
/// until one interns a path the pool has not seen. A shard worker keeps
/// its new paths in a private, initially empty pool (`Default`) whose ids
/// are offsets past the engine's pool.
#[derive(Clone, Debug, Default)]
struct PathPool {
    /// Reverse index; point lookups only, never iterated.
    ids: HashMap<AsPath, u32>,
    paths: Vec<AsPath>,
}

impl PathPool {
    fn new() -> Self {
        let mut ids = HashMap::new();
        ids.insert(AsPath::EMPTY, PATH_EMPTY);
        PathPool {
            ids,
            paths: vec![AsPath::EMPTY],
        }
    }

    #[inline]
    fn get(&self, id: u32) -> &AsPath {
        &self.paths[id as usize]
    }

    /// The id of `path`, when it is interned.
    #[inline]
    fn id_of(&self, path: &AsPath) -> Option<u32> {
        self.ids.get(path).copied()
    }

    /// Interns `path`, returning its stable id.
    fn intern(&mut self, path: AsPath) -> u32 {
        if let Some(id) = self.id_of(&path) {
            return id;
        }
        let id = self.paths.len() as u32;
        self.ids.insert(path, id);
        self.paths.push(path);
        id
    }
}

/// A route as stored in the flat RIBs: 24 bytes, every attribute either
/// inline or derivable (`learned_from` peer = the session's other
/// endpoint; the prefix = the pid of the slot it occupies).
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
struct StoredRoute {
    /// Interned AS path ([`PathPool`] id).
    path: u32,
    /// Border router of the local AS where traffic exits.
    egress: RouterId,
    /// Inter-domain exit link ([`NO_LINK`] unless eBGP-learned here).
    link: u32,
    /// Session the route was learned on ([`NO_SESSION`] = originated).
    session: u32,
    /// Relationship-derived local preference.
    local_pref: u32,
    /// Cached AS-path length (decision-process hot read).
    path_len: u8,
    /// Packed [`RouteSource`].
    source: u8,
    /// 1 when learned over eBGP at this router.
    ebgp: u8,
}

impl StoredRoute {
    /// A locally-originated route at border router `at`.
    fn originated(at: RouterId) -> Self {
        StoredRoute {
            path: PATH_EMPTY,
            egress: at,
            link: NO_LINK,
            session: NO_SESSION,
            local_pref: LOCAL_PREF_ORIGINATED,
            path_len: 0,
            source: SRC_ORIGINATED,
            ebgp: 0,
        }
    }
}

/// Routes received for one prefix at one router, keyed by session.
///
/// Valley-free exports mean a router hears a given prefix from only a
/// handful of neighbors, so two slots live inline and the rare overflow
/// spills to a boxed vector: the common path allocates nothing and the
/// cell stays 64 bytes.
#[derive(Clone, Debug)]
struct AdjCell {
    len: u32,
    inline: [StoredRoute; AdjCell::INLINE],
    // Box<Vec>, not Vec: an inline Vec is 24 bytes against the Box's 8,
    // and the pointer is only ever chased on the rare spilled cell.
    #[allow(clippy::box_collection)]
    spill: Option<Box<Vec<StoredRoute>>>,
}

impl Default for AdjCell {
    fn default() -> Self {
        AdjCell {
            len: 0,
            inline: [StoredRoute::originated(RouterId(0)); AdjCell::INLINE],
            spill: None,
        }
    }
}

impl AdjCell {
    const INLINE: usize = 2;

    #[inline]
    fn is_empty(&self) -> bool {
        self.len == 0
    }

    #[inline]
    fn inline_len(&self) -> usize {
        (self.len as usize).min(Self::INLINE)
    }

    fn iter(&self) -> impl Iterator<Item = &StoredRoute> {
        self.inline[..self.inline_len()]
            .iter()
            .chain(self.spill.iter().flat_map(|s| s.iter()))
    }

    fn get(&self, session: u32) -> Option<&StoredRoute> {
        self.iter().find(|sr| sr.session == session)
    }

    /// Inserts or replaces the route learned on `sr.session`.
    fn upsert(&mut self, sr: StoredRoute) {
        let il = self.inline_len();
        if let Some(slot) = self.inline[..il]
            .iter_mut()
            .find(|e| e.session == sr.session)
        {
            *slot = sr;
            return;
        }
        if let Some(spill) = &mut self.spill {
            if let Some(slot) = spill.iter_mut().find(|e| e.session == sr.session) {
                *slot = sr;
                return;
            }
        }
        if il < Self::INLINE {
            self.inline[il] = sr;
        } else {
            self.spill.get_or_insert_with(Default::default).push(sr);
        }
        self.len += 1;
    }

    /// Removes the route learned on `session`; false when absent.
    fn remove(&mut self, session: u32) -> bool {
        let il = self.inline_len();
        if let Some(i) = self.inline[..il].iter().position(|e| e.session == session) {
            // Shift the inline tail left and refill the freed slot from
            // the spill, keeping the inline region packed.
            self.inline.copy_within(i + 1..il, i);
            if let Some(spill) = &mut self.spill {
                if !spill.is_empty() {
                    self.inline[Self::INLINE - 1] = spill.remove(0);
                }
                if spill.is_empty() {
                    self.spill = None;
                }
            }
            self.len -= 1;
            return true;
        }
        if let Some(spill) = &mut self.spill {
            if let Some(i) = spill.iter().position(|e| e.session == session) {
                spill.remove(i);
                if spill.is_empty() {
                    self.spill = None;
                }
                self.len -= 1;
                return true;
            }
        }
        false
    }

    /// Rewrites every stored path id through `tr` (shard path-id
    /// translation).
    fn map_paths(&mut self, tr: impl Fn(u32) -> u32) {
        let il = self.inline_len();
        for e in &mut self.inline[..il] {
            e.path = tr(e.path);
        }
        if let Some(spill) = &mut self.spill {
            for e in spill.iter_mut() {
                e.path = tr(e.path);
            }
        }
    }
}

/// A dense bitset over prefix ids with a maintained cardinality.
///
/// Word 0 lives inline, so a set over fewer than 64 pids (every set in an
/// engine routing toward a handful of prefixes) allocates nothing, and a
/// copy-on-write break clones it with a plain copy. Words are read and
/// written through [`PidSet::word`] / [`PidSet::word_mut`].
#[derive(Clone, Debug, Default)]
struct PidSet {
    /// Pids `0..64`.
    first: u64,
    /// Words `1..`: `rest[i]` holds pids `64 * (i + 1)..64 * (i + 2)`.
    rest: Vec<u64>,
    count: u32,
}

impl PidSet {
    /// Number of words held (trailing words past it are zero).
    #[inline]
    fn word_count(&self) -> usize {
        1 + self.rest.len()
    }

    /// Word `w` (zero past the held words).
    #[inline]
    fn word(&self, w: usize) -> u64 {
        match w.checked_sub(1) {
            None => self.first,
            Some(i) => self.rest.get(i).copied().unwrap_or(0),
        }
    }

    /// Word `w`, holding it first when it lies past the held words.
    fn word_mut(&mut self, w: usize) -> &mut u64 {
        match w.checked_sub(1) {
            None => &mut self.first,
            Some(i) => {
                if i >= self.rest.len() {
                    self.rest.resize(i + 1, 0);
                }
                &mut self.rest[i]
            }
        }
    }

    fn contains(&self, pid: Pid) -> bool {
        self.word((pid / 64) as usize) & (1 << (pid % 64)) != 0
    }

    fn insert(&mut self, pid: Pid) -> bool {
        let bit = 1u64 << (pid % 64);
        let word = self.word_mut((pid / 64) as usize);
        if *word & bit != 0 {
            return false;
        }
        *word |= bit;
        self.count += 1;
        true
    }

    fn remove(&mut self, pid: Pid) -> bool {
        let w = (pid / 64) as usize;
        let bit = 1u64 << (pid % 64);
        if self.word(w) & bit == 0 {
            return false;
        }
        *self.word_mut(w) &= !bit;
        self.count -= 1;
        true
    }

    #[inline]
    fn is_empty(&self) -> bool {
        self.count == 0
    }

    /// Overwrites the bits of word `w` selected by `mask` with those of
    /// `bits`, keeping the cardinality.
    fn splice_word(&mut self, w: usize, bits: u64, mask: u64) {
        let old = self.word(w);
        let new = (old & !mask) | (bits & mask);
        if new == old {
            return;
        }
        self.count = self.count - old.count_ones() + new.count_ones();
        *self.word_mut(w) = new;
    }

    /// Set bits in ascending pid order.
    fn iter(&self) -> impl Iterator<Item = Pid> + '_ {
        // Clearing the lowest set bit each step yields bits in ascending
        // order; zero never enters the sequence, so `b - 1` cannot
        // underflow.
        (0..self.word_count()).flat_map(move |w| {
            let bits = self.word(w);
            std::iter::successors((bits != 0).then_some(bits), |&b| {
                let next = b & (b - 1);
                (next != 0).then_some(next)
            })
            .map(move |b| w as u32 * 64 + b.trailing_zeros())
        })
    }

    /// The set with every pid `p` renamed to `map[p]`.
    fn remapped(&self, map: &[Pid]) -> PidSet {
        let mut out = PidSet::default();
        for pid in self.iter() {
            out.insert(map[pid as usize]);
        }
        out
    }
}

/// Per-session policy inputs, precomputed at engine construction so the
/// import/export hot paths never consult the topology's relationship
/// table or router-to-AS mapping.
#[derive(Clone, Copy, Debug)]
struct SessMeta {
    /// AS of endpoint `a`.
    a_as: AsId,
    /// AS of endpoint `b`.
    b_as: AsId,
    /// eBGP only: relationship from `a`'s perspective.
    rel_at_a: PeerKind,
    /// eBGP only: relationship from `b`'s perspective.
    rel_at_b: PeerKind,
    /// True for eBGP sessions.
    ebgp: bool,
}

/// Route attributes carried in an `Update`, in interned form: the prefix
/// travels as a pid and the AS path (already prepended by the sender on
/// eBGP sessions) as a [`PathPool`] id, so forwarding a message is a
/// small fixed-size copy.
#[derive(Clone, Copy, Debug)]
struct RouteMsg {
    pid: Pid,
    path: u32,
    path_len: u8,
    /// iBGP-only: sender-assigned local preference.
    local_pref: u32,
    /// iBGP-only: the egress border router.
    egress: RouterId,
    /// iBGP-only: how the route entered the AS (packed).
    source: u8,
}

/// Message payload.
#[derive(Clone, Copy, Debug)]
enum Payload {
    /// Announce (or implicitly replace) a route.
    Update(RouteMsg),
    /// Withdraw the route for a prefix.
    Withdraw(Pid),
}

/// A queued BGP message.
#[derive(Clone, Copy, Debug)]
struct Msg {
    session: SessionId,
    from: RouterId,
    to: RouterId,
    payload: Payload,
}

/// Kind of an observed message.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum ObservedKind {
    /// Route announcement (including implicit replacement).
    Update,
    /// Route withdrawal.
    Withdraw,
}

/// An eBGP message received by a router of the observer AS.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct ObservedMsg {
    /// Receiving router (inside the observer AS).
    pub at: RouterId,
    /// External neighbor router that sent the message.
    pub from: RouterId,
    /// AS of the sender.
    pub from_as: AsId,
    /// Destination prefix the message concerns.
    pub prefix: Prefix,
    /// Update or withdraw.
    pub kind: ObservedKind,
    /// Monotonic sequence number (delivery order).
    pub seq: u64,
}

/// Per-router BGP state, flat over the dense prefix space.
///
/// `adj_in` and `loc_rib` are arrays indexed by pid, one slot per prefix
/// of the engine's pid space ([`Bgp::add_prefixes`]) — no sorted-map
/// memmove on insert, no allocation per message. The per-session tables
/// are bitsets over pids. The whole struct sits behind an `Arc` for
/// copy-on-write engine clones.
#[derive(Clone, Debug, Default)]
struct RouterState {
    /// Routes received per prefix (by pid), per session.
    adj_in: Vec<AdjCell>,
    /// Pids this router originates.
    originated: PidSet,
    /// Best route per prefix (by pid).
    loc_rib: Vec<Option<StoredRoute>>,
    /// Pids currently advertised per session.
    adj_out: VecMap<SessionId, PidSet>,
    /// Replay index: the pids present in `adj_in` per session, so a
    /// session flush touches exactly its own prefixes instead of scanning
    /// the whole Adj-RIB-In. Entries are removed when they empty out.
    adj_in_by_session: VecMap<SessionId, PidSet>,
}

impl RouterState {
    /// Bytes a copy-on-write break of this state copies: the two flat
    /// tables plus the words of every pid set.
    fn cow_bytes(&self) -> u64 {
        let tables = self.adj_in.len() * std::mem::size_of::<AdjCell>()
            + self.loc_rib.len() * std::mem::size_of::<Option<StoredRoute>>();
        let words: usize = self.originated.word_count()
            + self
                .adj_out
                .iter()
                .chain(self.adj_in_by_session.iter())
                .map(|(_, set)| set.word_count())
                .sum::<usize>();
        (tables + words * std::mem::size_of::<u64>()) as u64
    }

    /// Widens the tables to a grown pid space of `len` pids, moving every
    /// old pid `p` to `map[p]`.
    fn regrow(&mut self, map: &[Pid], len: usize) {
        let mut adj_in = vec![AdjCell::default(); len];
        for (cell, &to) in std::mem::take(&mut self.adj_in).into_iter().zip(map) {
            adj_in[to as usize] = cell;
        }
        self.adj_in = adj_in;
        let mut loc_rib = vec![None; len];
        for (slot, &to) in self.loc_rib.iter().zip(map) {
            loc_rib[to as usize] = *slot;
        }
        self.loc_rib = loc_rib;
        self.originated = self.originated.remapped(map);
        for (_, set) in self
            .adj_out
            .iter_mut()
            .chain(self.adj_in_by_session.iter_mut())
        {
            *set = set.remapped(map);
        }
    }
}

/// Statistics from a convergence run.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct RunStats {
    /// Messages processed.
    pub messages: u64,
}

/// Base safety cap on processed messages per `run` (a correct
/// configuration converges far below this; hitting it indicates a policy
/// dispute loop). Scaled with topology size at engine construction.
const MAX_MESSAGES_PER_RUN: u64 = 200_000_000;

/// The message plane's read-only inputs: everything `deliver`, `decide`,
/// `propagate` and `export` consult but never write during a run.
///
/// Plain borrows, never `Arc`s: a shard worker reads these tables on its
/// own core without touching a refcount another core also writes.
#[derive(Clone, Copy)]
struct Env<'a> {
    ctx: Ctx<'a>,
    sessions: &'a SessionTable,
    sess_meta: &'a [SessMeta],
    prefixes: &'a [Prefix],
    filters: &'a ExportFilters,
    /// Session-liveness cache (see [`Bgp::recompute_liveness`]).
    live: Option<&'a [u8]>,
    /// Message cap for one run.
    msg_cap: u64,
}

/// Write access to the routing state the message plane mutates.
///
/// Two implementations: [`CowRib`], the copy-on-write engine state every
/// sequential run and incremental trial uses, and [`ShardRib`], one
/// worker's in-place view of a sharded run. The hot functions on [`Env`]
/// are generic over it, so they exist once.
trait Rib {
    /// Observes a delivered message on a live session (the observer tap
    /// and the trace hook; nothing on a shard, where both are gated off).
    fn tap(&mut self, _env: &Env<'_>, _msg: &Msg, _meta: SessMeta) {}
    /// The next queued message, FIFO.
    fn next_msg(&mut self) -> Option<Msg>;
    /// Queues a message.
    fn send(&mut self, msg: Msg);
    /// Counts one decision-process run.
    fn count_decision(&mut self);
    /// The interned AS path `id`.
    fn path(&self, id: u32) -> &AsPath;
    /// Interns `path`, returning its id.
    fn intern(&mut self, path: AsPath) -> u32;
    /// True when `r` originates `pid`.
    fn originates(&self, r: RouterId, pid: Pid) -> bool;
    /// `r`'s Adj-RIB-In cell for `pid`.
    fn adj_in(&self, r: RouterId, pid: Pid) -> &AdjCell;
    /// Stores the route for `pid` learned on `sid` at `r`.
    fn learn(&mut self, r: RouterId, sid: SessionId, pid: Pid, sr: StoredRoute);
    /// Drops the route for `pid` learned on `sid` at `r`, if any.
    fn forget(&mut self, r: RouterId, sid: SessionId, pid: Pid);
    /// `r`'s best route for `pid`.
    fn best(&self, r: RouterId, pid: Pid) -> Option<StoredRoute>;
    /// Installs `r`'s best route for `pid`.
    fn set_best(&mut self, r: RouterId, pid: Pid, best: Option<StoredRoute>);
    /// True when `r` currently advertises `pid` on `sid`.
    fn advertised(&self, r: RouterId, sid: SessionId, pid: Pid) -> bool;
    /// Records whether `r` advertises `pid` on `sid`.
    fn set_advertised(&mut self, r: RouterId, sid: SessionId, pid: Pid, on: bool);
}

impl Env<'_> {
    /// Session liveness through the cache when present (one byte load on
    /// the hot path), falling back to the ground-truth recomputation.
    #[inline]
    fn sess_up(&self, sid: SessionId) -> bool {
        let ctx = self.ctx;
        match self.live {
            Some(v) => {
                let up = v[sid.index()] != 0;
                debug_assert_eq!(
                    up,
                    self.sessions.is_up(sid, ctx.topology, ctx.igp, ctx.links),
                    "stale session-liveness cache for {sid:?}"
                );
                up
            }
            None => self.sessions.is_up(sid, ctx.topology, ctx.igp, ctx.links),
        }
    }

    /// Processes `rib`'s queued messages to quiescence; returns how many.
    ///
    /// # Panics
    ///
    /// Panics if the safety cap is exceeded (policy dispute — cannot happen
    /// with the Gao-Rexford policies this workspace generates).
    fn drain<R: Rib>(&self, rib: &mut R) -> u64 {
        let mut messages = 0u64;
        while let Some(msg) = rib.next_msg() {
            messages += 1;
            assert!(
                messages <= self.msg_cap,
                "BGP did not converge: policy dispute?"
            );
            self.deliver(rib, msg);
        }
        messages
    }

    /// Delivers one message.
    // hot
    fn deliver<R: Rib>(&self, rib: &mut R, msg: Msg) {
        if !self.sess_up(msg.session) {
            return; // lost with the session
        }
        let meta = self.sess_meta[msg.session.index()];
        rib.tap(self, &msg, meta);
        let Msg {
            session,
            from: _,
            to,
            payload,
        } = msg;
        let pid = match payload {
            Payload::Update(rm) => {
                match self.import(rib, to, session, meta, rm) {
                    Some(sr) => rib.learn(to, session, rm.pid, sr),
                    // Loop-rejected update acts as a withdraw of any
                    // previous route on the session.
                    None => rib.forget(to, session, rm.pid),
                }
                rm.pid
            }
            Payload::Withdraw(pid) => {
                rib.forget(to, session, pid);
                pid
            }
        };
        if self.decide(rib, to, pid) {
            self.propagate(rib, to, pid);
        }
    }

    /// Converts an incoming update into a stored route (import policy).
    /// Returns `None` when the route is loop-rejected.
    fn import<R: Rib>(
        &self,
        rib: &R,
        to: RouterId,
        session: SessionId,
        meta: SessMeta,
        rm: RouteMsg,
    ) -> Option<StoredRoute> {
        let s = self.sessions.get(session);
        match s.kind {
            SessionKind::Ebgp { link } => {
                let (my_as, rel) = if to == s.a {
                    (meta.a_as, meta.rel_at_a)
                } else {
                    (meta.b_as, meta.rel_at_b)
                };
                if rib.path(rm.path).contains(&my_as) {
                    return None;
                }
                Some(StoredRoute {
                    path: rm.path,
                    egress: to,
                    link: link.0,
                    session: session.0,
                    local_pref: local_pref_for(rel),
                    path_len: rm.path_len,
                    source: pack_source(RouteSource::External(rel)),
                    ebgp: 1,
                })
            }
            SessionKind::Ibgp => Some(StoredRoute {
                path: rm.path,
                egress: rm.egress,
                link: NO_LINK,
                session: session.0,
                local_pref: rm.local_pref,
                path_len: rm.path_len,
                source: rm.source,
                ebgp: 0,
            }),
        }
    }

    /// Recomputes the best route of `r` for `pid`. Returns true when the
    /// Loc-RIB entry changed.
    // hot
    fn decide<R: Rib>(&self, rib: &mut R, r: RouterId, pid: Pid) -> bool {
        rib.count_decision();
        let best: Option<StoredRoute> = if rib.originates(r, pid) {
            Some(StoredRoute::originated(r))
        } else {
            let as_igp = self.ctx.igp.of(self.ctx.topology.as_of_router(r));
            rib.adj_in(r, pid)
                .iter()
                .filter(|sr| {
                    self.sess_up(SessionId(sr.session))
                        && (sr.ebgp != 0 || as_igp.reachable(r, sr.egress))
                })
                .max_by_key(|sr| {
                    let igp_dist = if sr.egress == r {
                        0
                    } else {
                        as_igp.dist(r, sr.egress).expect("filtered reachable")
                    };
                    let neighbor = self
                        .sessions
                        .get(SessionId(sr.session))
                        .other(r)
                        .expect("a stored session has the owning router as an endpoint")
                        .0;
                    (
                        sr.local_pref,
                        std::cmp::Reverse(sr.path_len),
                        sr.ebgp != 0,
                        std::cmp::Reverse(igp_dist),
                        std::cmp::Reverse(neighbor),
                        std::cmp::Reverse(sr.session),
                    )
                })
                .copied()
        };

        // Only take write access when the entry actually changes, so a
        // no-op re-decision (the common case in `refresh_as` and in
        // withdraw storms that leave the best route alone) keeps the
        // router's state shared.
        if rib.best(r, pid) == best {
            return false;
        }
        rib.set_best(r, pid, best);
        true
    }

    /// Synchronizes every session's Adj-RIB-Out with the current best route
    /// of `r` for `pid`, queueing updates/withdraws.
    // hot
    fn propagate<R: Rib>(&self, rib: &mut R, r: RouterId, pid: Pid) {
        let best: Option<StoredRoute> = rib.best(r, pid);
        // The eBGP prepend is identical for every peer of `r`; intern it
        // once, lazily, per propagate.
        let mut prepended: Option<(u32, u8)> = None;
        for &sid in self.sessions.of_router(r) {
            if !self.sess_up(sid) {
                continue;
            }
            let session = *self.sessions.get(sid);
            let peer = session
                .other(r)
                .expect("sid comes from r's session table, so r is an endpoint");
            let advertise: Option<RouteMsg> = match best {
                Some(b) => self.export(rib, r, peer, session, pid, b, &mut prepended),
                None => None,
            };
            let had = rib.advertised(r, sid, pid);
            match advertise {
                Some(rm) => {
                    if !had {
                        rib.set_advertised(r, sid, pid, true);
                    }
                    rib.send(Msg {
                        session: sid,
                        from: r,
                        to: peer,
                        payload: Payload::Update(rm),
                    });
                }
                None if had => {
                    rib.set_advertised(r, sid, pid, false);
                    rib.send(Msg {
                        session: sid,
                        from: r,
                        to: peer,
                        payload: Payload::Withdraw(pid),
                    });
                }
                None => {}
            }
        }
    }

    /// Export policy: what (if anything) `r` advertises for its best route
    /// `b` to `peer` over the given session. Interns the prepended AS path
    /// (cached in `prepended` across one propagate).
    #[allow(clippy::too_many_arguments)]
    fn export<R: Rib>(
        &self,
        rib: &mut R,
        r: RouterId,
        peer: RouterId,
        session: Session,
        pid: Pid,
        b: StoredRoute,
        prepended: &mut Option<(u32, u8)>,
    ) -> Option<RouteMsg> {
        let meta = self.sess_meta[session.id.index()];
        if !meta.ebgp {
            // Standard iBGP: only eBGP-learned and originated routes are
            // re-advertised internally (no reflection of iBGP routes).
            if !(b.ebgp != 0 || b.source == SRC_ORIGINATED) {
                return None;
            }
            return Some(RouteMsg {
                pid,
                path: b.path,
                path_len: b.path_len,
                local_pref: b.local_pref,
                egress: r,
                source: b.source,
            });
        }
        let (my_as, peer_as, rel) = if r == session.a {
            (meta.a_as, meta.b_as, meta.rel_at_a)
        } else {
            (meta.b_as, meta.a_as, meta.rel_at_b)
        };
        if !unpack_source(b.source).exportable_to(rel) {
            return None;
        }
        if rib.path(b.path).contains(&peer_as) {
            return None; // AS-level split horizon
        }
        if b.session == session.id.0 {
            return None; // never echo a route back on its session
        }
        if self.filters.is_denied(r, peer, self.prefixes[pid as usize]) {
            return None; // misconfiguration
        }
        let (path, path_len) = match *prepended {
            Some(v) => v,
            None => {
                let new_path = rib.path(b.path).prepended(my_as);
                let v = (rib.intern(new_path), b.path_len + 1);
                *prepended = Some(v);
                v
            }
        };
        Some(RouteMsg {
            pid,
            path,
            path_len,
            local_pref: 0,
            egress: r,
            source: b.source,
        })
    }
}

/// The engine's mutable routing state, copy-on-write.
///
/// Per-router state sits behind [`Arc`]s so an engine clone is
/// O(#routers) pointer bumps; writes go through [`CowRib::state_mut`],
/// which copies a router's RIBs only while they are still shared with
/// another clone. The message queue, the observer tap and the batched
/// counters live here too, beside the state they describe.
#[derive(Clone, Debug)]
struct CowRib {
    /// Interned AS paths (append-only, copy-on-write).
    paths: Arc<PathPool>,
    routers: Vec<Arc<RouterState>>,
    queue: VecDeque<Msg>,
    observer: Option<AsId>,
    observed: Vec<ObservedMsg>,
    seq: u64,
    recorder: RecorderHandle,
    /// Cached `recorder.trace_enabled()` so the per-message event gate is
    /// one branch, not a virtual call (set in [`Bgp::set_recorder`]).
    trace_on: bool,
    /// Decision-process invocations since the last flush (batched so the
    /// hot path pays one integer add, not a virtual call).
    decisions: u64,
    /// Copy-on-write breaks since the last flush (batched like `decisions`).
    cow_breaks: u64,
    /// Bytes those breaks copied (batched like `cow_breaks`).
    cow_bytes: u64,
}

impl CowRib {
    /// Read access to a router's BGP state.
    #[inline]
    fn state(&self, r: RouterId) -> &RouterState {
        &self.routers[r.index()]
    }

    /// Write access to a router's BGP state, cloning it first when it is
    /// still shared with another engine clone (copy-on-write break).
    fn state_mut(&mut self, r: RouterId) -> &mut RouterState {
        let arc = &mut self.routers[r.index()];
        if Arc::strong_count(arc) > 1 {
            self.cow_breaks += 1;
            self.cow_bytes += arc.cow_bytes();
        }
        Arc::make_mut(arc)
    }
}

impl Rib for CowRib {
    fn tap(&mut self, env: &Env<'_>, msg: &Msg, meta: SessMeta) {
        // Observer tap: record eBGP messages arriving in the observer AS.
        if let Some(obs) = self.observer {
            if meta.ebgp {
                let s = env.sessions.get(msg.session);
                let (to_as, from_as) = if msg.to == s.a {
                    (meta.a_as, meta.b_as)
                } else {
                    (meta.b_as, meta.a_as)
                };
                if to_as == obs {
                    let (pid, kind) = match msg.payload {
                        Payload::Update(rm) => (rm.pid, ObservedKind::Update),
                        Payload::Withdraw(pid) => (pid, ObservedKind::Withdraw),
                    };
                    self.observed.push(ObservedMsg {
                        at: msg.to,
                        from: msg.from,
                        from_as,
                        prefix: env.prefixes[pid as usize],
                        kind,
                        seq: self.seq,
                    });
                    self.seq += 1;
                }
            }
        }
        if self.trace_on {
            self.recorder.event(names::EV_BGP_MESSAGE, || {
                let (msg_kind, pid) = match msg.payload {
                    Payload::Update(rm) => ("update", rm.pid),
                    Payload::Withdraw(pid) => ("withdraw", pid),
                };
                netdiag_obs::EventPayload::new()
                    .field("kind", msg_kind)
                    .field("session", if meta.ebgp { "ebgp" } else { "ibgp" })
                    .field("from", msg.from.index())
                    .field("to", msg.to.index())
                    .field("prefix", env.prefixes[pid as usize].to_string())
            });
        }
    }

    #[inline]
    fn next_msg(&mut self) -> Option<Msg> {
        self.queue.pop_front()
    }

    #[inline]
    fn send(&mut self, msg: Msg) {
        self.queue.push_back(msg);
    }

    #[inline]
    fn count_decision(&mut self) {
        self.decisions += 1;
    }

    #[inline]
    fn path(&self, id: u32) -> &AsPath {
        self.paths.get(id)
    }

    /// Breaks pool sharing only when the path is genuinely new to this
    /// engine.
    fn intern(&mut self, path: AsPath) -> u32 {
        match self.paths.id_of(&path) {
            Some(id) => id,
            None => Arc::make_mut(&mut self.paths).intern(path),
        }
    }

    #[inline]
    fn originates(&self, r: RouterId, pid: Pid) -> bool {
        self.state(r).originated.contains(pid)
    }

    #[inline]
    fn adj_in(&self, r: RouterId, pid: Pid) -> &AdjCell {
        &self.state(r).adj_in[pid as usize]
    }

    fn learn(&mut self, r: RouterId, sid: SessionId, pid: Pid, sr: StoredRoute) {
        let state = self.state_mut(r);
        state.adj_in[pid as usize].upsert(sr);
        state.adj_in_by_session.entry_or_default(sid).insert(pid);
    }

    /// Leaves copy-on-write sharing intact when there is nothing to drop.
    fn forget(&mut self, r: RouterId, sid: SessionId, pid: Pid) {
        if self.adj_in(r, pid).get(sid.0).is_none() {
            return;
        }
        let state = self.state_mut(r);
        state.adj_in[pid as usize].remove(sid.0);
        if let Some(set) = state.adj_in_by_session.get_mut(&sid) {
            set.remove(pid);
            if set.is_empty() {
                state.adj_in_by_session.remove(&sid);
            }
        }
    }

    #[inline]
    fn best(&self, r: RouterId, pid: Pid) -> Option<StoredRoute> {
        self.state(r).loc_rib[pid as usize]
    }

    fn set_best(&mut self, r: RouterId, pid: Pid, best: Option<StoredRoute>) {
        self.state_mut(r).loc_rib[pid as usize] = best;
    }

    #[inline]
    fn advertised(&self, r: RouterId, sid: SessionId, pid: Pid) -> bool {
        self.state(r)
            .adj_out
            .get(&sid)
            .is_some_and(|s| s.contains(pid))
    }

    fn set_advertised(&mut self, r: RouterId, sid: SessionId, pid: Pid, on: bool) {
        let adj_out = &mut self.state_mut(r).adj_out;
        if on {
            adj_out.entry_or_default(sid).insert(pid);
        } else {
            adj_out
                .get_mut(&sid)
                .expect("advertised implies an entry")
                .remove(pid);
        }
    }
}

/// The BGP simulator for a whole topology.
///
/// The session table and per-session policy metadata are immutable after
/// construction and shared outright between clones; the prefix table only
/// grows when prefixes are added, and the RIBs and the path pool are
/// copy-on-write ([`CowRib`]), so a `Bgp` clone is O(#routers) pointer
/// bumps.
#[derive(Clone, Debug)]
pub struct Bgp {
    /// The session table (public for inspection; immutable after build).
    pub sessions: Arc<SessionTable>,
    /// Sorted table of the prefixes added so far; pid = index. Grows only
    /// through [`Bgp::add_prefixes`].
    prefixes: Arc<Vec<Prefix>>,
    /// Per-session policy inputs (immutable after build).
    sess_meta: Arc<Vec<SessMeta>>,
    filters: ExportFilters,
    /// Message cap for one `run`, scaled with topology size.
    msg_cap: u64,
    /// Cached per-session liveness (1 = up). `None` falls back to the
    /// ground-truth recomputation in [`SessionTable::is_up`]; when `Some`,
    /// the owner (the simulator layer) must keep it in sync with link and
    /// IGP state — a `debug_assert` cross-checks every read.
    live: Option<Vec<u8>>,
    /// Prefixes visited by scoped replay since the last flush (batched).
    replay_prefixes: u64,
    rib: CowRib,
}

impl Bgp {
    /// Creates the engine with an empty pid space (so no RIB tables) and
    /// no routes originated.
    pub fn new(topology: &Topology) -> Self {
        let sessions = Arc::new(SessionTable::build(topology));
        let mut all: Vec<Prefix> = topology.ases().iter().map(|a| a.prefix).collect();
        all.sort_unstable();
        all.dedup();
        let n_prefixes = all.len();
        let sess_meta: Vec<SessMeta> = sessions
            .sessions()
            .iter()
            .map(|s| {
                let a_as = topology.as_of_router(s.a);
                let b_as = topology.as_of_router(s.b);
                let (rel_at_a, rel_at_b, ebgp) = match s.kind {
                    SessionKind::Ebgp { .. } => (
                        topology
                            .relationship(a_as, b_as)
                            .expect("eBGP neighbors must have a relationship"),
                        topology
                            .relationship(b_as, a_as)
                            .expect("eBGP neighbors must have a relationship"),
                        true,
                    ),
                    // The relationship fields are never read on iBGP
                    // sessions; any value serves as the placeholder.
                    SessionKind::Ibgp => (PeerKind::Peer, PeerKind::Peer, false),
                };
                SessMeta {
                    a_as,
                    b_as,
                    rel_at_a,
                    rel_at_b,
                    ebgp,
                }
            })
            .collect();
        let msg_cap =
            MAX_MESSAGES_PER_RUN.max(sess_meta.len() as u64 * n_prefixes.max(1) as u64 * 64);
        Bgp {
            sessions,
            prefixes: Arc::new(Vec::new()),
            sess_meta: Arc::new(sess_meta),
            filters: ExportFilters::new(),
            msg_cap,
            live: None,
            replay_prefixes: 0,
            rib: CowRib {
                paths: Arc::new(PathPool::new()),
                routers: (0..topology.router_count())
                    .map(|_| Arc::new(RouterState::default()))
                    .collect(),
                queue: VecDeque::new(),
                observer: None,
                observed: Vec::new(),
                seq: 0,
                recorder: RecorderHandle::noop(),
                trace_on: false,
                decisions: 0,
                cow_breaks: 0,
                cow_bytes: 0,
            },
        }
    }

    /// Splits the engine into the message plane's read-only inputs and its
    /// copy-on-write RIB state (disjoint borrows, no refcount traffic).
    fn split<'a>(&'a mut self, ctx: Ctx<'a>) -> (Env<'a>, &'a mut CowRib) {
        let env = Env {
            ctx,
            sessions: &self.sessions,
            sess_meta: &self.sess_meta,
            prefixes: &self.prefixes,
            filters: &self.filters,
            live: self.live.as_deref(),
            msg_cap: self.msg_cap,
        };
        (env, &mut self.rib)
    }

    /// Runs the decision process of `r` for `pid` and, when the best
    /// route changed, propagates it.
    fn decide_and_propagate(&mut self, ctx: Ctx<'_>, r: RouterId, pid: Pid) {
        let (env, rib) = self.split(ctx);
        if env.decide(rib, r, pid) {
            env.propagate(rib, r, pid);
        }
    }

    /// Re-syncs every session's Adj-RIB-Out of `r` for `pid`.
    fn propagate(&mut self, ctx: Ctx<'_>, r: RouterId, pid: Pid) {
        let (env, rib) = self.split(ctx);
        env.propagate(rib, r, pid);
    }

    /// The pid of `prefix`, when it belongs to the engine's prefix space.
    #[inline]
    fn pid_of(&self, prefix: &Prefix) -> Option<Pid> {
        self.prefixes.binary_search(prefix).ok().map(|i| i as u32)
    }

    /// (Re)builds the session-liveness cache from link and IGP state.
    pub fn recompute_liveness(&mut self, ctx: Ctx<'_>) {
        let v = (0..self.sessions.sessions().len())
            .map(|i| {
                u8::from(
                    self.sessions
                        .is_up(SessionId(i as u32), ctx.topology, ctx.igp, ctx.links),
                )
            })
            .collect();
        self.live = Some(v);
    }

    /// Drops the liveness cache; reads fall back to ground truth until
    /// [`Bgp::recompute_liveness`] runs again.
    pub fn invalidate_liveness(&mut self) {
        self.live = None;
    }

    /// True when the liveness cache is present.
    pub fn has_liveness(&self) -> bool {
        self.live.is_some()
    }

    /// Marks one session down in the liveness cache (no-op without a
    /// cache). Failures only ever *degrade* liveness, so the incremental
    /// failure path keeps the cache valid with point updates; repairs must
    /// rebuild it via [`Bgp::recompute_liveness`].
    pub fn set_session_down(&mut self, sid: SessionId) {
        if let Some(v) = &mut self.live {
            v[sid.index()] = 0;
        }
    }

    /// Marks the eBGP session riding each given link down in the cache.
    pub fn mark_links_down(&mut self, links: &[LinkId]) {
        for &l in links {
            if let Some(sid) = self.sessions.ebgp_on_link(l) {
                self.set_session_down(sid);
            }
        }
    }

    /// Marks the iBGP sessions of the given same-AS router pairs down in
    /// the cache (the pairs come from [`SpfDelta::lost_pairs`]).
    pub fn mark_pairs_down(&mut self, pairs: &[(RouterId, RouterId)]) {
        for &(a, b) in pairs {
            if let Some(sid) = self.sessions.ibgp_between(a, b) {
                self.set_session_down(sid);
            }
        }
    }

    /// Read access to a router's BGP state.
    fn state(&self, r: RouterId) -> &RouterState {
        self.rib.state(r)
    }

    /// Forces every router's state to be uniquely owned (a full deep copy),
    /// detaching this engine from any sharing. Used to benchmark the cost
    /// the CoW representation avoids.
    pub fn unshare_all(&mut self) {
        for r in &mut self.rib.routers {
            Arc::make_mut(r);
        }
    }

    /// Designates the AS whose received eBGP messages are recorded.
    pub fn set_observer(&mut self, as_id: AsId) {
        self.rib.observer = Some(as_id);
    }

    /// Routes `bgp.*` metrics to `recorder` (counters flush at the end of
    /// each [`Bgp::run`]).
    pub fn set_recorder(&mut self, recorder: RecorderHandle) {
        self.rib.trace_on = recorder.trace_enabled();
        self.rib.recorder = recorder;
    }

    /// Drains the recorded observer messages.
    pub fn take_observed(&mut self) -> Vec<ObservedMsg> {
        std::mem::take(&mut self.rib.observed)
    }

    /// Whether a sharded run would be observationally equivalent to the
    /// sequential one. The final RIBs always are (per-prefix
    /// independence), but the observer tap and the trace recorder expose
    /// the sequential delivery *order*, so sharding is gated off while
    /// either is attached.
    pub fn can_shard(&self) -> bool {
        self.rib.observer.is_none() && !self.rib.trace_on
    }

    /// Currently installed export filters.
    pub fn filters(&self) -> &ExportFilters {
        &self.filters
    }

    /// Adds the prefixes of `ases` to the pid space without originating
    /// them; prefixes already in it are skipped.
    ///
    /// The new prefixes are merged into the sorted prefix table, and every
    /// router's tables, the per-session sets and the queued messages are
    /// renamed through the old-pid → new-pid map. The map is monotone, so
    /// ascending pid still means ascending [`Prefix`] and every pid-ordered
    /// walk (replay, flush, readvertise) visits prefixes in the same order
    /// as before the growth.
    pub fn add_prefixes(&mut self, topology: &Topology, ases: &[AsId]) {
        let fresh: Vec<Prefix> = ases
            .iter()
            .map(|&a| topology.as_node(a).prefix)
            .filter(|p| self.pid_of(p).is_none())
            .collect();
        if fresh.is_empty() {
            return;
        }
        let mut merged: Vec<Prefix> = self.prefixes.iter().copied().chain(fresh).collect();
        merged.sort_unstable();
        merged.dedup();
        let map: Vec<Pid> = self
            .prefixes
            .iter()
            .map(|p| {
                merged
                    .binary_search(p)
                    .expect("the merged table holds every old prefix") as Pid
            })
            .collect();
        let len = merged.len();
        self.prefixes = Arc::new(merged);
        for r in 0..self.rib.routers.len() {
            self.rib.state_mut(RouterId(r as u32)).regrow(&map, len);
        }
        for msg in &mut self.rib.queue {
            match &mut msg.payload {
                Payload::Update(rm) => rm.pid = map[rm.pid as usize],
                Payload::Withdraw(pid) => *pid = map[*pid as usize],
            }
        }
    }

    /// Originates the prefix of each AS in `ases`, in the given order, at
    /// every border router of the AS (every router for single-router
    /// ASes), after adding the prefixes to the pid space in one growth
    /// step. Queues the initial announcements; call [`Bgp::run`]
    /// afterwards.
    pub fn originate(&mut self, ctx: Ctx<'_>, ases: &[AsId]) {
        self.add_prefixes(ctx.topology, ases);
        for &as_id in ases {
            let asn = ctx.topology.as_node(as_id);
            let pid = self
                .pid_of(&asn.prefix)
                .expect("add_prefixes interned every originated prefix");
            let originators = asn
                .routers
                .iter()
                .copied()
                .filter(|&r| asn.routers.len() == 1 || ctx.topology.is_border_router(r));
            for r in originators {
                self.rib.state_mut(r).originated.insert(pid);
                self.decide_and_propagate(ctx, r, pid);
            }
        }
    }

    /// Processes queued messages to quiescence.
    ///
    /// # Panics
    ///
    /// Panics if the safety cap is exceeded (policy dispute — cannot happen
    /// with the Gao-Rexford policies this workspace generates).
    pub fn run(&mut self, ctx: Ctx<'_>) -> RunStats {
        let (env, rib) = self.split(ctx);
        let messages = env.drain(rib);
        self.flush_counters(messages);
        RunStats { messages }
    }

    /// Reports one run and the batched counters to the recorder.
    fn flush_counters(&mut self, messages: u64) {
        let rib = &mut self.rib;
        if !rib.recorder.enabled() {
            return;
        }
        rib.recorder.add(names::BGP_RUNS, 1);
        rib.recorder.add(names::BGP_MSGS, messages);
        rib.recorder.add(names::BGP_DECISIONS, rib.decisions);
        rib.decisions = 0;
        if rib.cow_breaks > 0 {
            rib.recorder
                .add(names::SIM_SNAPSHOT_COW_BREAKS, rib.cow_breaks);
            rib.recorder
                .add(names::SIM_SNAPSHOT_COW_BYTES, rib.cow_bytes);
            rib.cow_breaks = 0;
            rib.cow_bytes = 0;
        }
        if self.replay_prefixes > 0 {
            rib.recorder
                .add(names::BGP_REPLAY_PREFIXES_SCOPED, self.replay_prefixes);
            self.replay_prefixes = 0;
        }
    }

    /// [`Bgp::run`] with the message plane partitioned by prefix across
    /// `threads` workers, converging in place. Callers must check
    /// [`Bgp::can_shard`] first.
    ///
    /// Routing toward one prefix never reads another prefix's state in
    /// this model, so the queued messages are split into contiguous pid
    /// ranges and worker `k` converges range `k` directly in this
    /// engine's tables: every router is made uniquely owned once, and each
    /// worker borrows its own disjoint `[lo, hi)` column slices of every
    /// router's Adj-RIB-In and Loc-RIB. Nothing is cloned per worker, no
    /// worker touches a refcount, and there is no merge pass. What a
    /// worker cannot write in place it keeps privately and hands back:
    ///
    /// * paths the engine's pool lacks go to a worker-local overflow pool
    ///   and are interned into the engine's pool in shard order afterwards
    ///   (so the resulting ids are the same on every run), then the ids
    ///   stored in the worker's columns are rewritten in parallel;
    /// * the per-session `adj_out` / `adj_in_by_session` bits of its range
    ///   live in worker-local sets and are folded back word range by word
    ///   range, pruning emptied `adj_in_by_session` entries as the
    ///   sequential engine does.
    ///
    /// The fixed point is byte-identical to the sequential run's — each
    /// shard's FIFO order equals the sequential delivery order restricted
    /// to its own prefixes — and the message and decision counts match
    /// exactly.
    pub fn run_sharded(&mut self, ctx: Ctx<'_>, threads: usize) -> RunStats {
        assert!(self.can_shard(), "sharding is gated by Bgp::can_shard");
        let n_prefixes = self.prefixes.len();
        let threads = threads.clamp(1, n_prefixes.max(1));
        if threads <= 1 {
            return self.run(ctx);
        }
        // Contiguous pid ranges: shard k owns [bounds[k], bounds[k + 1]).
        let bounds: Vec<Pid> = (0..=threads)
            .map(|i| (i * n_prefixes / threads) as Pid)
            .collect();
        let mut queues: Vec<VecDeque<Msg>> = vec![VecDeque::new(); threads];
        for msg in self.rib.queue.drain(..) {
            let pid = match msg.payload {
                Payload::Update(rm) => rm.pid,
                Payload::Withdraw(pid) => pid,
            };
            queues[bounds.partition_point(|&b| b <= pid) - 1].push_back(msg);
        }
        // Own every router once: the workers then write its columns in
        // place, and a clone of this engine keeps its own copy.
        for r in 0..self.rib.routers.len() {
            self.rib.state_mut(RouterId(r as u32));
        }
        let (env, rib) = self.split(ctx);
        let base = rib.paths.paths.len() as u32;
        let outs: Vec<ShardOut> = {
            let pool: &PathPool = &rib.paths;
            let mut shards: Vec<ShardRib<'_>> = queues
                .into_iter()
                .enumerate()
                .map(|(k, queue)| ShardRib {
                    lo: bounds[k],
                    bit_base: bounds[k] / 64 * 64,
                    base,
                    pool,
                    overflow: PathPool::default(),
                    queue,
                    decisions: 0,
                    cols: Vec::with_capacity(rib.routers.len()),
                    bits: Vec::with_capacity(rib.routers.len()),
                })
                .collect();
            for arc in rib.routers.iter_mut() {
                let RouterState {
                    adj_in,
                    originated,
                    loc_rib,
                    adj_out,
                    adj_in_by_session,
                } = Arc::get_mut(arc).expect("every router was made unique above");
                let originated: &PidSet = originated;
                let mut adj_rest: &mut [AdjCell] = adj_in;
                let mut rib_rest: &mut [Option<StoredRoute>] = loc_rib;
                for (k, shard) in shards.iter_mut().enumerate() {
                    let (lo, hi) = (bounds[k], bounds[k + 1]);
                    let len = (hi - lo) as usize;
                    let (adj_in, adj_tail) = std::mem::take(&mut adj_rest).split_at_mut(len);
                    let (loc_rib, rib_tail) = std::mem::take(&mut rib_rest).split_at_mut(len);
                    adj_rest = adj_tail;
                    rib_rest = rib_tail;
                    shard.cols.push(ShardCols {
                        adj_in,
                        loc_rib,
                        originated,
                    });
                    shard.bits.push(ShardBits {
                        adj_out: slice_bits(adj_out, lo, hi),
                        adj_in_by_session: slice_bits(adj_in_by_session, lo, hi),
                    });
                }
            }
            std::thread::scope(|scope| {
                let handles: Vec<_> = shards
                    .into_iter()
                    .map(|mut shard| {
                        scope.spawn(move || {
                            let messages = env.drain(&mut shard);
                            ShardOut {
                                messages,
                                decisions: shard.decisions,
                                overflow: shard.overflow.paths,
                                bits: shard.bits,
                            }
                        })
                    })
                    .collect();
                handles
                    .into_iter()
                    .map(|h| h.join().expect("BGP shard worker panicked"))
                    .collect()
            })
        };
        // Intern each shard's new paths in shard order. Shard 0's come
        // first, so its ids are already final; a later shard's need the
        // rewrite below only when some id moved.
        let mut xlat: Vec<Option<Vec<u32>>> = vec![None; threads];
        if outs.iter().any(|o| !o.overflow.is_empty()) {
            let pool = Arc::make_mut(&mut rib.paths);
            let added: usize = outs.iter().map(|o| o.overflow.len()).sum();
            pool.ids.reserve(added);
            pool.paths.reserve(added);
            for (k, out) in outs.iter().enumerate() {
                let global: Vec<u32> = out.overflow.iter().map(|&p| pool.intern(p)).collect();
                let moved = global
                    .iter()
                    .enumerate()
                    .any(|(i, &id)| id != base + i as u32);
                xlat[k] = moved.then_some(global);
            }
        }
        // Fold the bits and rewrite the path ids, one worker per
        // contiguous run of routers (every shard's range of each).
        let chunk = rib.routers.len().div_ceil(threads).max(1);
        std::thread::scope(|scope| {
            for (c, routers) in rib.routers.chunks_mut(chunk).enumerate() {
                let (outs, xlat, bounds) = (&outs, &xlat, &bounds);
                scope.spawn(move || {
                    for (i, arc) in routers.iter_mut().enumerate() {
                        let st = Arc::get_mut(arc).expect("every router was made unique above");
                        settle_router(st, c * chunk + i, outs, xlat, bounds, base);
                    }
                });
            }
        });
        let messages = outs.iter().map(|o| o.messages).sum();
        self.rib.decisions += outs.iter().map(|o| o.decisions).sum::<u64>();
        self.flush_counters(messages);
        RunStats { messages }
    }

    /// Materializes a stored route into the public [`Route`] shape.
    fn materialize(&self, r: RouterId, pid: Pid, sr: StoredRoute) -> Route {
        Route {
            prefix: self.prefixes[pid as usize],
            as_path: *self.rib.paths.get(sr.path),
            egress: sr.egress,
            ebgp_link: (sr.link != NO_LINK).then_some(LinkId(sr.link)),
            local_pref: sr.local_pref,
            source: unpack_source(sr.source),
            learned_from: (sr.session != NO_SESSION).then(|| {
                let sid = SessionId(sr.session);
                let peer = self
                    .sessions
                    .get(sid)
                    .other(r)
                    .expect("a stored session has the owning router as an endpoint");
                (sid, peer)
            }),
            ebgp_learned: sr.ebgp != 0,
        }
    }

    /// The best route of `r` for exactly `prefix`.
    pub fn best_route(&self, r: RouterId, prefix: &Prefix) -> Option<Route> {
        let pid = self.pid_of(prefix)?;
        self.state(r).loc_rib[pid as usize].map(|sr| self.materialize(r, pid, sr))
    }

    /// Longest-prefix-match lookup in `r`'s Loc-RIB.
    pub fn lookup(&self, r: RouterId, dst: Ipv4Addr) -> Option<Route> {
        let state = self.state(r);
        let mut best: Option<(Pid, StoredRoute)> = None;
        for (i, slot) in state.loc_rib.iter().enumerate() {
            let Some(sr) = slot else { continue };
            let p = self.prefixes[i];
            if !p.contains(dst) {
                continue;
            }
            // Distinct prefixes of equal length cannot both contain `dst`,
            // so `<=` never actually breaks a tie; it mirrors the old
            // last-max semantics all the same.
            if best.is_none_or(|(bp, _)| self.prefixes[bp as usize].len() <= p.len()) {
                best = Some((i as u32, *sr));
            }
        }
        best.map(|(pid, sr)| self.materialize(r, pid, sr))
    }

    /// Iterates over `r`'s Loc-RIB (prefix-ordered), materializing each
    /// route on demand.
    pub fn loc_rib(&self, r: RouterId) -> impl Iterator<Item = (Prefix, Route)> + '_ {
        let state = self.state(r);
        state
            .loc_rib
            .iter()
            .enumerate()
            .filter_map(move |(i, slot)| {
                slot.map(|sr| (self.prefixes[i], self.materialize(r, i as u32, sr)))
            })
    }

    /// Reacts to a link going down (the [`LinkState`] must already reflect
    /// it, and for intra-domain links the IGP must already be recomputed).
    ///
    /// * inter-domain link: tears down its eBGP session and flushes routes;
    /// * intra-domain link: revalidates the owning AS via
    ///   [`Bgp::refresh_as`].
    ///
    /// Queues reconvergence messages; call [`Bgp::run`] afterwards.
    pub fn handle_link_down(&mut self, ctx: Ctx<'_>, link: LinkId) {
        let l = ctx.topology.link(link);
        match l.kind {
            LinkKind::Inter => {
                if let Some(sid) = self.sessions.ebgp_on_link(link) {
                    self.set_session_down(sid);
                    self.flush_session(ctx, sid);
                }
            }
            LinkKind::Intra => {
                let as_id = ctx.topology.as_of_router(l.a);
                self.refresh_as(ctx, as_id);
            }
        }
    }

    /// Flushes the eBGP session riding a failed inter-domain link. The
    /// liveness cache must already mark the session down (see
    /// [`Bgp::mark_links_down`]); this only replays the affected prefixes.
    pub fn fail_ebgp_link(&mut self, ctx: Ctx<'_>, link: LinkId) {
        if let Some(sid) = self.sessions.ebgp_on_link(link) {
            self.flush_session(ctx, sid);
        }
    }

    /// Scoped variant of [`Bgp::refresh_as`] driven by a delta-SPF result:
    /// flushes exactly the iBGP sessions that just died
    /// ([`SpfDelta::lost_pairs`]) and replays the decision process only on
    /// routers whose IGP distance vector changed
    /// ([`SpfDelta::dirty_sources`]).
    ///
    /// Queues the exact same messages as a full `refresh_as`: a skipped
    /// router has an unchanged distance vector, unchanged session
    /// liveness and an untouched Adj-RIB-In, so every one of its
    /// re-decisions would return "no change" and enqueue nothing; flushes
    /// of long-dead sessions are no-ops because their state was already
    /// removed when they died. The liveness cache must already reflect
    /// the dead sessions (see [`Bgp::mark_pairs_down`]).
    pub fn refresh_as_scoped(&mut self, ctx: Ctx<'_>, delta: &SpfDelta) {
        let mut dead: Vec<SessionId> = delta
            .lost_pairs
            .iter()
            .filter_map(|&(a, b)| self.sessions.ibgp_between(a, b))
            .collect();
        dead.sort_unstable();
        for sid in dead {
            self.flush_session(ctx, sid);
        }
        for &r in &delta.dirty_sources {
            self.replay_router(ctx, r, true);
        }
    }

    /// Re-runs the decision process on every pid `r` currently holds state
    /// for (Adj-RIB-In or Loc-RIB), in ascending prefix order. A decision
    /// at one pid never touches another pid's state at `r`, so the lazy
    /// scan visits exactly the pids an up-front snapshot would.
    fn replay_router(&mut self, ctx: Ctx<'_>, r: RouterId, count_scoped: bool) {
        for pid in 0..self.prefixes.len() as Pid {
            {
                let state = self.state(r);
                if state.adj_in[pid as usize].is_empty() && state.loc_rib[pid as usize].is_none() {
                    continue;
                }
            }
            if count_scoped {
                self.replay_prefixes += 1;
            }
            self.decide_and_propagate(ctx, r, pid);
        }
    }

    /// Revalidates an AS after its IGP state changed: tears down
    /// newly-unreachable iBGP sessions and re-runs the decision process on
    /// every router of the AS (IGP distances participate in route choice).
    pub fn refresh_as(&mut self, ctx: Ctx<'_>, as_id: AsId) {
        // Tear down dead iBGP sessions.
        let dead: Vec<SessionId> = ctx
            .topology
            .as_node(as_id)
            .routers
            .iter()
            .flat_map(|&r| self.sessions.of_router(r).iter().copied())
            .filter(|&sid| {
                let s = self.sessions.get(sid);
                s.kind == SessionKind::Ibgp
                    && ctx.topology.as_of_router(s.a) == as_id
                    && !self.sessions.is_up(sid, ctx.topology, ctx.igp, ctx.links)
            })
            .collect::<BTreeSet<_>>()
            .into_iter()
            .collect();
        for sid in dead {
            self.flush_session(ctx, sid);
        }
        // Re-decide everything in the AS: IGP distance changes can flip the
        // best route even when all sessions stay up.
        for &r in &ctx.topology.as_node(as_id).routers {
            self.replay_router(ctx, r, false);
        }
    }

    /// Reacts to a link coming back up (the [`LinkState`] must already
    /// reflect it, and for intra-domain links the IGP must already be
    /// recomputed). Re-advertises current routes over the re-established
    /// session(s); call [`Bgp::run`] afterwards.
    pub fn handle_link_up(&mut self, ctx: Ctx<'_>, link: LinkId) {
        let l = ctx.topology.link(link);
        match l.kind {
            LinkKind::Inter => {
                // The eBGP session is back: both ends resend their best
                // routes (a session reset triggers a full refresh).
                if self.rib.trace_on {
                    self.rib.recorder.event(names::EV_BGP_SESSION, || {
                        netdiag_obs::EventPayload::new()
                            .field("state", "up")
                            .field("kind", "ebgp")
                            .field("a", l.a.index())
                            .field("b", l.b.index())
                    });
                }
                for r in [l.a, l.b] {
                    self.readvertise_all(ctx, r);
                }
            }
            LinkKind::Intra => {
                // Healed partition: IGP distances changed and previously-
                // dead iBGP sessions are back; re-decide and resync every
                // router of the AS.
                let as_id = ctx.topology.as_of_router(l.a);
                self.refresh_as(ctx, as_id);
                for &r in &ctx.topology.as_node(as_id).routers {
                    self.readvertise_all(ctx, r);
                }
            }
        }
    }

    /// Resyncs every session's Adj-RIB-Out of `r` with its current best
    /// routes (sends updates over sessions that missed them).
    fn readvertise_all(&mut self, ctx: Ctx<'_>, r: RouterId) {
        for pid in 0..self.prefixes.len() as Pid {
            if self.state(r).loc_rib[pid as usize].is_some() {
                self.propagate(ctx, r, pid);
            }
        }
    }

    /// Installs an export deny rule (a router misconfiguration) and queues
    /// the resulting withdrawal. Call [`Bgp::run`] afterwards.
    pub fn install_filter(&mut self, ctx: Ctx<'_>, rule: ExportDeny) {
        self.filters.deny(rule);
        if let Some(pid) = self.pid_of(&rule.prefix) {
            self.propagate(ctx, rule.at, pid);
        }
    }

    /// Removes an export deny rule (the operator fixes the
    /// misconfiguration) and re-announces the suppressed route. Call
    /// [`Bgp::run`] afterwards. Returns false if the rule was not
    /// installed.
    pub fn remove_filter(&mut self, ctx: Ctx<'_>, rule: &ExportDeny) -> bool {
        if !self.filters.allow(rule) {
            return false;
        }
        if let Some(pid) = self.pid_of(&rule.prefix) {
            self.propagate(ctx, rule.at, pid);
        }
        true
    }

    /// Removes all adj-in/adj-out state of a dead session and reconverges
    /// the affected prefixes at both endpoints.
    fn flush_session(&mut self, ctx: Ctx<'_>, sid: SessionId) {
        let s = *self.sessions.get(sid);
        if self.rib.trace_on {
            self.rib.recorder.event(names::EV_BGP_SESSION, || {
                netdiag_obs::EventPayload::new()
                    .field("state", "down")
                    .field("kind", session_kind_str(s.kind))
                    .field("a", s.a.index())
                    .field("b", s.b.index())
            });
        }
        // Drop in-flight messages on the session (they would be discarded at
        // delivery anyway because the session is down).
        for r in [s.a, s.b] {
            // Read-only pre-check so routers untouched by the session don't
            // break copy-on-write sharing.
            let touched = {
                let state = self.state(r);
                state.adj_out.contains_key(&sid) || state.adj_in_by_session.contains_key(&sid)
            };
            if !touched {
                continue;
            }
            let state = self.rib.state_mut(r);
            state.adj_out.remove(&sid);
            // The replay index hands us exactly the pids learned on this
            // session (prefix-ordered), replacing a full Adj-RIB-In scan.
            let affected: Vec<Pid> = match state.adj_in_by_session.remove(&sid) {
                Some(set) => set.iter().collect(),
                None => Vec::new(),
            };
            for &pid in &affected {
                state.adj_in[pid as usize].remove(sid.0);
            }
            self.replay_prefixes += affected.len() as u64;
            for pid in affected {
                self.decide_and_propagate(ctx, r, pid);
            }
        }
    }
}

/// One router's columns for a shard's pid range, borrowed in place.
struct ShardCols<'a> {
    /// Adj-RIB-In cells for pids `[lo, hi)`.
    adj_in: &'a mut [AdjCell],
    /// Loc-RIB entries for pids `[lo, hi)`.
    loc_rib: &'a mut [Option<StoredRoute>],
    /// Pids the router originates (read-only during a run).
    originated: &'a PidSet,
}

/// One router's per-session bits for a shard's pid range, held by the
/// worker and folded back after the run. Bit `i` stands for pid
/// `bit_base + i`.
struct ShardBits {
    adj_out: VecMap<SessionId, PidSet>,
    adj_in_by_session: VecMap<SessionId, PidSet>,
}

/// One worker's in-place view of a sharded run: every router's columns
/// for the pids in `[lo, hi)`, borrowed straight out of the engine.
struct ShardRib<'a> {
    /// First pid of the shard.
    lo: Pid,
    /// `lo` rounded down to a word boundary: the pid of local bit 0.
    bit_base: Pid,
    /// Size of the engine's path pool when the run began.
    base: u32,
    /// The engine's path pool (read-only while the workers run).
    pool: &'a PathPool,
    /// Paths the pool lacked; id `base + i` names `overflow.paths[i]`.
    overflow: PathPool,
    queue: VecDeque<Msg>,
    decisions: u64,
    /// Indexed by router.
    cols: Vec<ShardCols<'a>>,
    /// Indexed by router.
    bits: Vec<ShardBits>,
}

/// What a shard worker hands back after its run.
struct ShardOut {
    messages: u64,
    decisions: u64,
    /// The overflow paths, in local-id order.
    overflow: Vec<AsPath>,
    bits: Vec<ShardBits>,
}

impl Rib for ShardRib<'_> {
    #[inline]
    fn next_msg(&mut self) -> Option<Msg> {
        self.queue.pop_front()
    }

    #[inline]
    fn send(&mut self, msg: Msg) {
        self.queue.push_back(msg);
    }

    #[inline]
    fn count_decision(&mut self) {
        self.decisions += 1;
    }

    #[inline]
    fn path(&self, id: u32) -> &AsPath {
        match id.checked_sub(self.base) {
            Some(i) => self.overflow.get(i),
            None => self.pool.get(id),
        }
    }

    fn intern(&mut self, path: AsPath) -> u32 {
        match self.pool.id_of(&path) {
            Some(id) => id,
            None => self.base + self.overflow.intern(path),
        }
    }

    #[inline]
    fn originates(&self, r: RouterId, pid: Pid) -> bool {
        self.cols[r.index()].originated.contains(pid)
    }

    #[inline]
    fn adj_in(&self, r: RouterId, pid: Pid) -> &AdjCell {
        &self.cols[r.index()].adj_in[(pid - self.lo) as usize]
    }

    fn learn(&mut self, r: RouterId, sid: SessionId, pid: Pid, sr: StoredRoute) {
        self.cols[r.index()].adj_in[(pid - self.lo) as usize].upsert(sr);
        self.bits[r.index()]
            .adj_in_by_session
            .entry_or_default(sid)
            .insert(pid - self.bit_base);
    }

    /// Keeps an emptied local set: the fold must still clear the range.
    fn forget(&mut self, r: RouterId, sid: SessionId, pid: Pid) {
        if !self.cols[r.index()].adj_in[(pid - self.lo) as usize].remove(sid.0) {
            return;
        }
        if let Some(set) = self.bits[r.index()].adj_in_by_session.get_mut(&sid) {
            set.remove(pid - self.bit_base);
        }
    }

    #[inline]
    fn best(&self, r: RouterId, pid: Pid) -> Option<StoredRoute> {
        self.cols[r.index()].loc_rib[(pid - self.lo) as usize]
    }

    #[inline]
    fn set_best(&mut self, r: RouterId, pid: Pid, best: Option<StoredRoute>) {
        self.cols[r.index()].loc_rib[(pid - self.lo) as usize] = best;
    }

    #[inline]
    fn advertised(&self, r: RouterId, sid: SessionId, pid: Pid) -> bool {
        self.bits[r.index()]
            .adj_out
            .get(&sid)
            .is_some_and(|s| s.contains(pid - self.bit_base))
    }

    fn set_advertised(&mut self, r: RouterId, sid: SessionId, pid: Pid, on: bool) {
        let bit = pid - self.bit_base;
        let adj_out = &mut self.bits[r.index()].adj_out;
        if on {
            adj_out.entry_or_default(sid).insert(bit);
        } else {
            adj_out
                .get_mut(&sid)
                .expect("advertised implies an entry")
                .remove(bit);
        }
    }
}

/// Folds every shard's per-session bits for router `ri` into its state
/// and rewrites the path ids each shard with a translation (`xlat[k]`,
/// indexed by `id - base`) stored in its columns.
fn settle_router(
    st: &mut RouterState,
    ri: usize,
    outs: &[ShardOut],
    xlat: &[Option<Vec<u32>>],
    bounds: &[Pid],
    base: u32,
) {
    for (k, out) in outs.iter().enumerate() {
        let (lo, hi) = (bounds[k], bounds[k + 1]);
        let bits = &out.bits[ri];
        fold_bits(&mut st.adj_out, &bits.adj_out, lo, hi, false);
        fold_bits(
            &mut st.adj_in_by_session,
            &bits.adj_in_by_session,
            lo,
            hi,
            true,
        );
        let Some(ids) = &xlat[k] else { continue };
        let tr = |id: u32| id.checked_sub(base).map_or(id, |i| ids[i as usize]);
        let range = lo as usize..hi as usize;
        for cell in &mut st.adj_in[range.clone()] {
            cell.map_paths(tr);
        }
        for sr in st.loc_rib[range].iter_mut().flatten() {
            sr.path = tr(sr.path);
        }
    }
}

/// The bits of word `w` that stand for pids in `[lo, hi)`.
fn range_mask(w: usize, lo: Pid, hi: Pid) -> u64 {
    let first = w as u32 * 64;
    let a = lo.saturating_sub(first).min(64);
    let b = hi.saturating_sub(first).min(64);
    if a >= b {
        0
    } else {
        (u64::MAX >> (64 - (b - a))) << a
    }
}

/// A shard's starting copy of the per-session sets: the bits of pids in
/// `[lo, hi)`, re-based so local bit 0 is pid `lo / 64 * 64`. Sessions
/// with no bit in the range get no entry.
fn slice_bits(src: &VecMap<SessionId, PidSet>, lo: Pid, hi: Pid) -> VecMap<SessionId, PidSet> {
    let w0 = (lo / 64) as usize;
    let mut out = VecMap::default();
    for (&sid, set) in src {
        let mut local = PidSet::default();
        for w in w0..hi.div_ceil(64) as usize {
            local.splice_word(w - w0, set.word(w), range_mask(w, lo, hi));
        }
        if !local.is_empty() {
            out.insert(sid, local);
        }
    }
    out
}

/// Folds a shard's sets (from [`slice_bits`], then written by the worker)
/// back over the `[lo, hi)` bits of the engine's sets. A session the shard
/// holds no entry for had no bit in the range before the run and gained
/// none. With `prune`, sets left empty are removed, as the sequential
/// engine keeps no empty `adj_in_by_session` entry; without it an entry the
/// shard created stays even when empty, as `adj_out`'s do.
fn fold_bits(
    dst: &mut VecMap<SessionId, PidSet>,
    src: &VecMap<SessionId, PidSet>,
    lo: Pid,
    hi: Pid,
    prune: bool,
) {
    let w0 = (lo / 64) as usize;
    for (&sid, set) in src {
        let d = dst.entry_or_default(sid);
        for w in w0..hi.div_ceil(64) as usize {
            d.splice_word(w, set.word(w - w0), range_mask(w, lo, hi));
        }
        if prune && d.is_empty() {
            dst.remove(&sid);
        }
    }
}

/// Stable session-kind label used in trace payloads.
fn session_kind_str(kind: SessionKind) -> &'static str {
    match kind {
        SessionKind::Ebgp { .. } => "ebgp",
        SessionKind::Ibgp => "ibgp",
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use netdiag_topology::gen::{generate, GenConfig};

    /// A route with its path id resolved, so engines whose pools assigned
    /// ids in different orders compare by content.
    type Resolved = (AsPath, StoredRoute);

    /// One router's tables: Loc-RIB, Adj-RIB-In cells in stored order,
    /// and the `adj_out` / `adj_in_by_session` sets (entries and bits).
    type RouterDump = (
        Vec<Option<Resolved>>,
        Vec<Vec<Resolved>>,
        Vec<(SessionId, Vec<Pid>)>,
        Vec<(SessionId, Vec<Pid>)>,
    );

    fn dump(bgp: &Bgp) -> Vec<RouterDump> {
        let resolve =
            |sr: &StoredRoute| (*bgp.rib.paths.get(sr.path), StoredRoute { path: 0, ..*sr });
        let sets = |m: &VecMap<SessionId, PidSet>| -> Vec<(SessionId, Vec<Pid>)> {
            m.iter()
                .map(|(&sid, set)| (sid, set.iter().collect()))
                .collect()
        };
        bgp.rib
            .routers
            .iter()
            .map(|st| {
                (
                    st.loc_rib
                        .iter()
                        .map(|slot| slot.as_ref().map(resolve))
                        .collect(),
                    st.adj_in
                        .iter()
                        .map(|c| c.iter().map(resolve).collect())
                        .collect(),
                    sets(&st.adj_out),
                    sets(&st.adj_in_by_session),
                )
            })
            .collect()
    }

    /// The sharded run must leave *every* table as the sequential run
    /// does, including the per-session sets a Loc-RIB comparison cannot
    /// see: which `adj_out` entries exist (even empty ones) and that no
    /// emptied `adj_in_by_session` entry survives the fold. Checked on a
    /// fresh convergence and on a reconvergence after eBGP failures, where
    /// the shards start from converged state and withdraw routes. With
    /// only every third AS originating, sessions carry few prefixes, so
    /// border routers' `adj_out` entries are first created inside the
    /// shards and withdrawals empty whole `adj_in_by_session` entries.
    #[test]
    fn sharded_runs_leave_every_table_as_the_sequential_run_does() {
        let topology = generate(&GenConfig::new(120, 9))
            .expect("generated topology builds")
            .topology;
        let links = LinkState::all_up(&topology);
        let igp = Igp::compute(&topology, &links);
        let failed: Vec<LinkId> = topology
            .links()
            .iter()
            .filter(|l| l.kind == LinkKind::Inter)
            .step_by(5)
            .take(10)
            .map(|l| l.id)
            .collect();
        let mut down = links.clone();
        for &l in &failed {
            down.set_down(l);
        }
        let (ctx, ctx_down) = (
            Ctx {
                topology: &topology,
                igp: &igp,
                links: &links,
            },
            Ctx {
                topology: &topology,
                igp: &igp,
                links: &down,
            },
        );
        // Converge with every `step`-th AS originating, then fail the
        // links and reconverge, both on `threads` shards.
        let scenario = |step: usize, threads: usize| {
            let mut bgp = Bgp::new(&topology);
            let ases: Vec<AsId> = (0..topology.as_count())
                .step_by(step)
                .map(|a| AsId(a as u32))
                .collect();
            bgp.originate(ctx, &ases);
            let converged = bgp.run_sharded(ctx, threads);
            let converged_dump = dump(&bgp);
            for &l in &failed {
                bgp.handle_link_down(ctx_down, l);
            }
            let reconverged = bgp.run_sharded(ctx_down, threads);
            (converged, converged_dump, reconverged, dump(&bgp))
        };
        for step in [1, 3] {
            let (seq, seq_dump, seq_failed, seq_failed_dump) = scenario(step, 1);
            assert!(seq_failed.messages > 0, "the failures changed nothing");
            for threads in [2, 3, 7] {
                let (par, par_dump, par_failed, par_failed_dump) = scenario(step, threads);
                let what = format!("step {step}, {threads} shards");
                assert_eq!(par, seq, "{what}");
                assert!(par_dump == seq_dump, "{what}: tables differ");
                assert_eq!(par_failed, seq_failed, "{what}, after failures");
                assert!(
                    par_failed_dump == seq_failed_dump,
                    "{what}, after failures: tables differ"
                );
            }
        }
    }
}
