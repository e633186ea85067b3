(** Environments: named manifests of root specs with a unified solve, a
    fingerprinted lockfile, and an optional merged view — the paper's
    many-configurations-one-store story (§2, §6) with the esy-style
    solve/fetch split.

    {b Solve} — {!install} concretizes {e all} roots in one pass through
    {!Ospack_concretize.Multiroot} (shared constraint context, sub-DAGs
    merged by hash, memoized in the ordinary concretization cache), so
    two roots can never lock conflicting versions of a shared dependency.
    The result is written to the lockfile and installed through the
    parallel scheduler in a single DAG-merged batch.

    {b Fetch} — {!install_locked} replays the committed lockfile without
    solving anything. A lockfile is trusted only while its recorded
    context fingerprint (universe + toolchains + config + backend, plus a
    per-spec Merkle fingerprint over each closure's recipes) still
    matches: any drift is a typed {!lock_error.Lock_stale}, tampering is
    {!lock_error.Lock_corrupt}, and neither ever yields a partial
    install. At an unchanged fingerprint, a fresh solve and a lockfile
    replay produce byte-identical stores — {!install} asserts this
    whenever it re-solves over a valid lock.

    {b Views} — an environment's view links exactly its locked closure
    ({!Commands.view_closure}), so N environments share one store with
    disjoint, closure-exact views.

    All durable files (manifest, lockfile) are written with
    {!Ospack_vfs.Vfs.write_atomic}; {!torture} kills the whole lifecycle at
    every filesystem barrier through {!Ospack_vfs.Vfs.crash_sweep} and
    checks old-or-new integrity plus recovery convergence. *)

type t = {
  env_name : string;
  env_roots : string list;
      (** canonical printed root specs, in insertion order *)
  env_view : string option;  (** view root, when the env keeps a view *)
}

val manifest_path : string -> string
val lock_path : string -> string

(** The lockfile format is 3, the only one read: any other format is
    [Lock_corrupt "unknown format N"] and the file is left untouched.

    A format-3 lockfile is one compact JSON object,
    [{"format":3,"checksum":C,"payload":P}] and a newline, where [C] is
    the SHA-256 of [P]'s bytes exactly as written. [P] holds
    - [fingerprint]: the context fingerprint per part
      ({!Ospack_concretize.Ccache.fingerprint_parts}: backend, universe,
      toolchains, config);
    - [roots]: one [{spec, hash, merkle}] per root, in manifest order;
    - [nodes]: every node of every locked DAG once, keyed by its DAG
      hash, with its dependencies given as hashes. *)

val create :
  Context.t -> name:string -> ?view:string -> unit -> (t, string) result

val load : Context.t -> name:string -> (t, string) result
(** Read an environment's manifest, canonicalizing every root once (the
    form {!add} stores). A root that does not parse is an [Error], never
    kept as a raw string. *)

val list_envs : Context.t -> string list

val add : Context.t -> t -> string -> (t, string) result
(** Append a root. The spec is canonicalized through the parser and
    printer before comparing and storing, so [mpileaks@1.0] and
    [mpileaks @1.0] are the same root. *)

val remove_root : Context.t -> t -> string -> (t, string) result

(** {1 Lockfile} *)

type lock_error =
  | Lock_missing  (** no lockfile yet *)
  | Lock_corrupt of string
      (** unreadable, checksum mismatch, or internally inconsistent
          (e.g. a recorded hash that does not match its DAG) *)
  | Lock_stale of {
      lock_fp : string;  (** fingerprint recorded in the lockfile *)
      current_fp : string;  (** this context's fingerprint *)
      reason : string;
    }
      (** the context drifted since the lock was written — re-solve with
          {!install}; never silently replayed. [reason] names what
          drifted; the fingerprints are those of the drifted part or
          root (both empty when the manifest's roots changed). *)

val lock_error_to_string : lock_error -> string

type lock = {
  lk_fingerprint : (string * string) list;
      (** the context fingerprint per part, as recorded *)
  lk_roots : string list;
  lk_specs : (string * Ospack_spec.Concrete.t) list;
      (** (canonical root, its concrete sub-DAG), in manifest order *)
}

val read_lock : Context.t -> t -> (lock, lock_error) result
(** Read and validate the lockfile: the checksum over the payload bytes
    (before anything is parsed), that every node of each root's DAG
    hashes to its recorded key, the context fingerprint part by part
    (a drift is [Lock_stale] with reason ["<part> fingerprint
    changed"]), that the locked roots still match the manifest, and the
    per-root Merkle recipe fingerprints (["package recipes drifted under
    <root>"]). Never writes. *)

val write_lock :
  Context.t ->
  t ->
  (string * Ospack_spec.Concrete.t) list ->
  (unit, string) result
(** Write the lockfile for these (canonical root, concrete DAG) pairs:
    rendered once, compactly, and written with
    {!Ospack_vfs.Vfs.write_atomic}. *)

(** {1 Solve / fetch} *)

val concretize_roots :
  Context.t -> t -> ((string * Ospack_spec.Concrete.t) list, string) result
(** The unified solve alone: one (canonical root, concrete) pair per
    root, nothing installed and no lockfile written. *)

type report = {
  er_roots : (string * Ospack_spec.Concrete.t) list;
  er_report : Ospack_store.Installer.parallel_report;
  er_linked : int;  (** files linked into the env view (0 without one) *)
}

val install : ?jobs:int -> Context.t -> t -> (report, string) result
(** Unified solve, lockfile write, then one parallel install of the whole
    merged environment DAG ([jobs] workers, default 1), then view sync.
    When a valid lockfile already covers these roots at this fingerprint,
    the fresh solve is asserted hash-identical to it. *)

type locked_error =
  | Locked_lock of lock_error  (** the lockfile was not replayable *)
  | Locked_failed of string  (** the install itself failed *)

val locked_error_to_string : locked_error -> string

val install_locked :
  ?jobs:int -> Context.t -> t -> (report, locked_error) result
(** Replay the lockfile: no solve, no lock rewrite. Fails typed before
    touching the store when the lock is missing, corrupt, or stale. *)

val sync_view : Context.t -> t -> (int, string) result
(** Re-link the environment view from the current lockfile; returns the
    number of files linked (0 when the env has no view). *)

val status : Context.t -> t -> (string * bool) list
(** Per root: is it installed? Judged against the locked hashes when a
    valid lockfile exists, else by abstract satisfaction. *)

(** {1 Torture} *)

type torture_report = {
  et_jobs : int;
  et_barriers : int;  (** write barriers in the reference lifecycle *)
  et_kills : int;  (** kill points exercised *)
  et_manifest_intact : int;
      (** kills at which a (previous) manifest existed and was intact *)
  et_lock_intact : int;
}

val torture_report_to_string : torture_report -> string

val torture :
  ?jobs:int ->
  ?every:int ->
  ?config:Ospack_config.Config.t ->
  ?backend:Ospack_concretize.Backends.t ->
  name:string ->
  ?view:string ->
  roots:string list ->
  unit ->
  (torture_report, string) result
(** The environment's {!Ospack_vfs.Vfs.crash_sweep}: the operation is
    the env lifecycle (create, add each root, install) on a fresh
    context, killed at every [every]-th barrier (default 1; [every < 1]
    is the error ["torture: every must be >= 1"], as for
    {!Ospack_store.Torture.run}). At each kill point the manifest and
    lockfile must be absent or a complete previous version (never
    torn), and the same lifecycle re-run over the crashed filesystem
    must reach a store index and lockfile byte-identical to the
    reference run. The re-run resumes from the surviving manifest and
    skips only roots it already holds; any other error — a root that
    does not parse, say — fails the sweep. *)
