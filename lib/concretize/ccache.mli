(** The Merkle-fingerprinted concretization cache.

    Concretization is ospack's hottest non-build path (paper §3.2: the
    greedy fixed point over the whole DAG), and its result is a pure
    function of (abstract spec, package universe, compiler registry, site
    configuration). This module memoizes that function: entries are keyed
    by the canonical printed form of the abstract spec ({!key_of}) and
    validated in two tiers.

    {b Base fingerprint} — a SHA-256 over the inputs shared by every
    entry: the algorithm-version+backend tag, repository name, toolchain
    registry, and configuration key/value store. The base is part of every
    entry's file name, so after a base change (new algorithm, different
    backend, config or compiler change) no stored entry is ever read: the
    cache starts cold.

    {b Per-entry Merkle fingerprint} — a SHA-256 over the identity hashes
    ({!Ospack_package.Package.identity_string}) of exactly the packages
    in the entry's dependency closure, plus the provider identities of
    every virtual interface the closure uses (a new, removed, or edited
    provider can flip provider selection even when the stored DAG never
    contained it). Editing one recipe therefore invalidates only the
    entries whose closure can see the edit; unrelated entries survive.
    [ccache.invalidations] counts {e evicted entries}: each stale or
    corrupt entry file a lookup meets, and each entry an {!import}
    drops.

    The cornerstone invariant is that caching is observationally
    invisible: a cache hit returns a value byte-identical to what a cold
    concretization would have produced. That holds because concretization
    is deterministic and every input is covered by the key, the base
    fingerprint, or the entry fingerprint — a stale entry is never
    trusted.

    Persistence is one file per entry, in a {!Ospack_vfs.Sharded_dir}
    outside the install tree: the cache is a function of the repository,
    toolchains, configuration and backend, never of the store. An
    entry's file is named by the SHA-256 of the base fingerprint and its
    key, and holds [{format, base, spec, merkle, concrete}]. Opening a
    cache reads nothing; a {!lookup} that misses memory reads only that
    key's file and validates it; a {!save} writes only the entries
    stored since the previous one, each write-then-rename, so a kill
    leaves an entry's old file or its new one, never a torn one. A miss
    therefore persists one entry, whatever the size of the cache. *)

type t

type context
(** The validation context: base fingerprint plus the repository, its
    provider index, and the entry fingerprints it has computed, by
    closure. Build one per (repo, compilers, config, backend) and share
    it across cache operations; per-package identity hashes are memoized
    in the repository itself
    ({!Ospack_package.Repository.identity_hash}), so fresh contexts over
    one repository never re-hash a recipe. *)

val context :
  ?backend:string ->
  ?providers:Ospack_package.Provider_index.t ->
  repo:Ospack_package.Repository.t ->
  compilers:Ospack_config.Compilers.t ->
  config:Ospack_config.Config.t ->
  unit ->
  context
(** Build a validation context. Policy is a pure function of the
    configuration, so covering the config covers the policy. [backend]
    (default ["greedy"]) extends the algorithm tag with the selected
    concretizer backend, so entries produced by one backend are never
    served to another. [providers] is [repo]'s provider index when the
    caller already built one (a concretizer context has); without it the
    first fingerprint that needs one builds it. *)

val base_fingerprint : context -> string
(** The base fingerprint (64 hex chars) — everything shared by all
    entries; package recipes are covered per entry instead. *)

val fingerprint_parts : context -> (string * string) list
(** The base fingerprint's inputs hashed one part at a time:
    [("backend", _); ("universe", _); ("toolchains", _); ("config", _)],
    each a SHA-256 (64 hex chars) over exactly the lines the base feeds
    for that part (algorithm+backend tag, repository name, toolchain
    registry, configuration). Two contexts have the same base exactly
    when every part agrees, so a lockfile that records the parts can
    name the one that drifted. Computed on first use. *)

val entry_fingerprint : context -> Ospack_spec.Concrete.t -> string
(** The Merkle fingerprint (64 hex chars) a concrete DAG must hash to
    for an entry holding it to be valid under [context]: base
    fingerprint, identity hash of each closure package, and provider
    identities of each virtual interface used. It reads only the
    closure's node names and the virtuals each provides, and everything
    behind those is fixed with the context, so the context keeps each
    closure's fingerprint: a later DAG over the same names and provided
    virtuals is not hashed again. A new context (another repository,
    such as a recipe edit, or another base) starts with none. *)

val create :
  ?obs:Ospack_obs.Obs.t ->
  ?dir:Ospack_vfs.Vfs.t * string ->
  context:context ->
  unit ->
  t
(** An empty cache bound to a validation context. With [dir = (vfs,
    root)] it is backed by one file per entry under [root]: creating it
    reads nothing, {!lookup} reads back entries lazily and {!save}
    persists. Without [dir] the cache lives in memory only. *)

val context_of : t -> context

val key_of : Ospack_spec.Ast.t -> string
(** The cache key: the canonical printed form of the abstract spec
    ({!Ospack_spec.Printer.to_string} — deps sorted, version lists
    normalized). Specs that parse to the same AST share a key. *)

val lookup : t -> Ospack_spec.Ast.t -> Ospack_spec.Concrete.t option
(** Memory first; on a memory miss in a backed cache, read only this
    key's file and keep it iff its format, base, key and recorded Merkle
    fingerprint are current. A stale, corrupt or mismatched file is
    removed and counts one [ccache.invalidations]; a missing one is a
    plain miss. A validated entry joins the in-memory set (and its nodes
    {!seed_map}). Counts [ccache.hits] / [ccache.misses] on the cache's
    obs sink. *)

val entry_path : t -> Ospack_spec.Ast.t -> string option
(** Where a backed cache keeps the entry for this spec; [None] for a
    memory-only cache. *)

val store : t -> Ospack_spec.Ast.t -> Ospack_spec.Concrete.t -> unit
(** Record an authoritative (abstract, concrete) pair, and harvest every
    node of the concrete DAG into {!seed_map}. This is where the entry is
    fingerprinted, once; in a backed cache it is also queued for the next
    {!save}, under the file name the miss's {!lookup} already hashed
    when it was the last lookup of this key. Re-storing a key replaces
    its entry. *)

val failure : t -> Ospack_spec.Ast.t -> Cerror.t option
(** The error a solve of this spec already failed with under this
    cache, recorded by {!memo}; counts [ccache.failure_hits]
    when found. Consulted after {!lookup} misses, so a failing query in
    a long-lived context solves once. The memo lives in memory only: it
    is never persisted, exported or counted by {!length}, and a fresh
    cache starts without it. *)

val failure_explanation :
  t ->
  Ospack_spec.Ast.t ->
  (unit -> Cerror.explanation option) ->
  Cerror.explanation option
(** [failure_explanation t ast explain]: the conflict explanation of this
    spec's memoized failure. The first request runs [explain ()] and
    keeps its answer beside the error, so a repeated failing query is
    rendered again without solving. A spec with no memoized failure gets
    [explain ()], kept nowhere. Counts nothing. *)

val memo :
  ?cache:t ->
  ?installed:(Ospack_spec.Ast.t -> Ospack_spec.Concrete.t option) ->
  obs:Ospack_obs.Obs.t ->
  Ospack_spec.Ast.t ->
  (unit -> (Ospack_spec.Concrete.t, Cerror.t) result) ->
  (Ospack_spec.Concrete.t, Cerror.t) result
(** [memo ?cache ?installed ~obs ast solve] answers one concretization
    query; every cached concretization path goes through it, whatever
    its backend. The layers, in order:

    + {b store-aware reuse} — when [installed] finds an installed
      concrete spec satisfying [ast], it is returned as-is (span
      [ccache.reuse_lookup], counter [ccache.reuse_hits]). A reuse
      answer is never stored: it reflects the store, not the packages.
    + {b whole-query memo} — a {!lookup} hit (span [ccache.lookup]).
    + {b failure memo} — a query whose solve already failed under this
      cache returns that error without solving ({!failure}).
    + {b solve} — [solve ()], stored back by {!store} on success and
      recorded in the failure memo on failure.

    Without [cache], a query reuse does not answer goes straight to
    [solve ()]. The spans and [ccache.reuse_hits] go to [obs]; the
    cache's own counters to the cache's sink. *)

val seed_map : t -> Ospack_spec.Concrete.node Ospack_spec.Concrete.Smap.t
(** The sub-DAG memo, owned by the cache: for each package that appeared
    in any stored, imported or read-back concretization, the concrete
    node it pinned to there (the last store wins). Each store adds its
    DAG's nodes, one O(log S) insertion each, so reading the map costs
    nothing and a miss's seeding ({!Concretizer.seed_for}) looks up only
    the query's own names, never the whole map. Seeds
    prime the fixed point's first iteration; they are {e never} served as
    whole-query answers — a node's parameters inside one DAG need not
    match its standalone concretization. *)

val seed_count : t -> int
(** The number of bindings in {!seed_map}, kept as it grows. *)

val seeds : t -> (string * Ospack_spec.Concrete.node) list
(** {!seed_map}'s bindings, sorted by package name ([String.compare]). *)

val length : t -> int
(** Authoritative entries in memory — stored, imported or read back by
    {!lookup} (seeds excluded). *)

val to_json : t -> Ospack_json.Json.t
(** The portable document of the in-memory entries: format version,
    base fingerprint, and one [{spec; merkle; concrete}] object per
    entry, sorted by spec. Every Merkle fingerprint is recomputed from
    scratch, past the context's closure memo, so this is also the
    reference each entry file and the memo are checked against. *)

val import : t -> string -> unit
(** Merge a serialized {!to_json} document into [t], {e validating} it
    against [t]'s context. A format or base mismatch (or unparsable
    text) discards every stored entry; otherwise each entry is
    revalidated individually and kept iff its recorded Merkle
    fingerprint still matches its DAG. Every evicted entry counts one
    [ccache.invalidations]; malformed entries are dropped (and counted)
    without poisoning their neighbours. The survivors are stored as if
    by {!store}, seeds included, so the next {!save} writes them to a
    backed cache's directory. Never an error, never a stale entry. *)

val save : t -> (unit, string) result
(** Persist the entries stored since the previous save, one
    {!Ospack_vfs.Sharded_dir.write} each (write-then-rename), in key
    order: the compact [Json.to_string] of [{format, base, spec, merkle,
    concrete}]. Nothing already persisted is re-read, re-hashed or
    re-written. On a failed write the unwritten entries stay queued.
    A memory-only cache has nothing to save. *)
