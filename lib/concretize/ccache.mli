(** The Merkle-fingerprinted concretization cache.

    Concretization is ospack's hottest non-build path (paper §3.2: the
    greedy fixed point over the whole DAG), and its result is a pure
    function of (abstract spec, package universe, compiler registry, site
    configuration). This module memoizes that function: entries are keyed
    by the canonical printed form of the abstract spec ({!key_of}) and
    validated in two tiers.

    {b Base fingerprint} — a SHA-256 over the inputs shared by every
    entry: the algorithm-version+backend tag, repository name, toolchain
    registry, and configuration key/value store. A base mismatch (new
    algorithm, different backend, config or compiler change) discards the
    whole stored cache.

    {b Per-entry Merkle fingerprint} — a SHA-256 over the identity hashes
    ({!Ospack_package.Package.identity_string}) of exactly the packages
    in the entry's dependency closure, plus the provider identities of
    every virtual interface the closure uses (a new, removed, or edited
    provider can flip provider selection even when the stored DAG never
    contained it). Editing one recipe therefore invalidates only the
    entries whose closure can see the edit; unrelated entries survive.
    [ccache.invalidations] counts {e evicted entries} — per entry, under
    wholesale and targeted invalidation alike.

    The cornerstone invariant is that caching is observationally
    invisible: a cache hit returns a value byte-identical to what a cold
    concretization would have produced. That holds because concretization
    is deterministic and every input is covered by the key, the base
    fingerprint, or the entry fingerprint — a stale entry is never
    trusted.

    Persistence is crash-safe: {!save} writes a sibling temp file and
    {!Ospack_vfs.Vfs.rename}s it over the destination, so readers observe
    either the old or the new cache, never a torn one.

    Persistence is also incremental in cost, though not in format: each
    entry is fingerprinted and rendered exactly once, when it is stored
    or survives a load, and a persist is one concatenation of those
    fragments, one write and one rename. A miss no longer re-hashes or
    re-serializes the entries already cached. *)

type t

type context
(** The validation context: base fingerprint plus memoized per-package
    identity hashes and the provider index of the repository. Build one
    per (repo, compilers, config, backend) and share it across cache
    operations. *)

val algorithm_version : string
(** Bumped whenever the concretizer's semantics change; part of the base
    fingerprint so an upgraded binary never trusts an old cache. *)

val context :
  ?backend:string ->
  repo:Ospack_package.Repository.t ->
  compilers:Ospack_config.Compilers.t ->
  config:Ospack_config.Config.t ->
  unit ->
  context
(** Build a validation context. Policy is a pure function of the
    configuration, so covering the config covers the policy. [backend]
    (default ["greedy"]) extends the algorithm tag with the selected
    concretizer backend, so entries produced by one backend are never
    served to another. *)

val base_fingerprint : context -> string
(** The base fingerprint (64 hex chars) — everything shared by all
    entries; package recipes are covered per entry instead. *)

val entry_fingerprint : context -> Ospack_spec.Concrete.t -> string
(** The Merkle fingerprint (64 hex chars) a concrete DAG must hash to
    for an entry holding it to be valid under [context]: base
    fingerprint, identity hash of each closure package, and provider
    identities of each virtual interface used. *)

val create : ?obs:Ospack_obs.Obs.t -> context:context -> unit -> t
(** An empty in-memory cache bound to a validation context. *)

val context_of : t -> context

val key_of : Ospack_spec.Ast.t -> string
(** The cache key: the canonical printed form of the abstract spec
    ({!Ospack_spec.Printer.to_string} — deps sorted, version lists
    normalized). Specs that parse to the same AST share a key. *)

val lookup : t -> Ospack_spec.Ast.t -> Ospack_spec.Concrete.t option
(** Counts [ccache.hits] / [ccache.misses] on the cache's obs sink. *)

val store : t -> Ospack_spec.Ast.t -> Ospack_spec.Concrete.t -> unit
(** Record an authoritative (abstract, concrete) pair, and harvest every
    node of the concrete DAG into the advisory seed table. This is where
    the entry is fingerprinted and rendered to its persisted bytes, once:
    later {!save}s reuse them. Re-storing a key replaces its entry. *)

val seeds : t -> (string * Ospack_spec.Concrete.node) list
(** The sub-DAG memo, sorted by package name: for each package that
    appeared in any stored concretization, the concrete node it pinned
    to. Seeds prime the fixed point's first iteration
    ({!Concretizer.concretize_cached}); they are {e never} served as
    whole-query answers — a node's parameters inside one DAG need not
    match its standalone concretization. *)

val length : t -> int
(** Authoritative entries only (seeds excluded). *)

val to_json : t -> Ospack_json.Json.t
(** Serialized form: format version, base fingerprint, and one
    [{spec; merkle; concrete}] object per entry, sorted by spec. Every
    Merkle fingerprint is recomputed, so this is the reference the
    incremental renderer is checked against. *)

val to_string : t -> string
(** The persisted document: exactly
    [Ospack_json.Json.to_string ~indent:2 (to_json t)], assembled from the
    per-entry fragments rendered at {!store}/load time between a fixed
    header and footer, with no hashing and no JSON tree. *)

val of_json :
  ?obs:Ospack_obs.Obs.t ->
  context:context ->
  Ospack_json.Json.t ->
  t
(** Rebuild a cache from its serialized form, {e validating} it against
    the current context. A format or base mismatch discards every stored
    entry; otherwise each entry is revalidated individually and kept iff
    its recorded Merkle fingerprint still matches its DAG under
    [context]. Every evicted entry counts one [ccache.invalidations];
    malformed entries are dropped (and counted) without poisoning their
    neighbours. Seeds are harvested only from surviving entries. Never an
    error, never a stale entry. *)

val load :
  ?obs:Ospack_obs.Obs.t ->
  context:context ->
  Ospack_vfs.Vfs.t ->
  path:string ->
  t
(** Read the persisted cache at [path]; a missing file is a plain empty
    cache, an unparsable one counts one invalidation. *)

val save : t -> Ospack_vfs.Vfs.t -> path:string -> (unit, string) result
(** Persist {!to_string}: write [path ^ ".tmp"], then rename over
    [path]. One concatenation of the already-rendered entries, one write
    and one rename — no fingerprint is recomputed and no entry is
    re-serialized, so a persist costs a memory copy of the file rather
    than O(entries) hashing and rendering. *)
