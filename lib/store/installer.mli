(** The installer: bottom-up DAG traversal, reuse, and provenance
    (paper §3.4: "At install time, Spack constructs a package object for
    each node in the spec DAG and traverses the DAG in a bottom-up
    fashion").

    Installation of a concrete spec builds each node whose sub-DAG hash is
    not yet in the database, dependencies first, into its unique prefix
    (Spack-default layout by default). Nodes whose hash already exists are
    reused — that is the sub-DAG sharing of Fig. 9 — and reported as such. *)

type t

type outcome = {
  o_record : Database.record;
  o_reused : bool;  (** true when the hash was already installed *)
  o_cached : bool;  (** true when extracted from the binary cache *)
  o_cache_miss : bool;
      (** true when a binary cache was configured but lacked the hash,
          so the node had to be built from source *)
}

type stats = {
  mutable st_built : int;  (** nodes built from source *)
  mutable st_reused : int;  (** nodes whose hash was already installed *)
  mutable st_cache_hits : int;  (** nodes extracted from the binary cache *)
  mutable st_cache_misses : int;
      (** nodes built because the configured cache lacked their hash *)
  mutable st_staging_failures : int;
      (** builds that failed in staging (mirror fetch / checksum) *)
  mutable st_externals : int;  (** vendor prefixes registered (§4.4) *)
}
(** Cumulative, typed accounting over the installer's lifetime —
    classified from the builder's typed errors and the install paths
    taken, never by string-matching messages. *)

val create :
  ?fs:Ospack_buildsim.Fsmodel.t ->
  ?scheme:Ospack_layout.Layout.scheme ->
  ?install_root:string ->
  ?stage_root:string ->
  ?use_wrappers:bool ->
  ?config:Ospack_config.Config.t ->
  ?cache:Buildcache.t ->
  ?mirror:Ospack_buildsim.Mirror.t ->
  ?obs:Ospack_obs.Obs.t ->
  vfs:Ospack_vfs.Vfs.t ->
  repo:Ospack_package.Repository.t ->
  compilers:Ospack_config.Compilers.t ->
  unit ->
  t
(** Defaults: tmpfs stage, Spack-default layout under ["/ospack/opt"],
    stage under ["/ospack/stage"], wrappers enabled, empty configuration.
    [config] supplies [externals.*] declarations (§4.4): when a node to be
    installed satisfies a declared external spec, its vendor prefix is
    registered instead of building (the prefix is populated with vendor
    artifacts on first use so downstream links resolve). [cache] enables
    pulls from a binary build cache: nodes whose hash is cached are
    extracted (with prefix relocation) instead of built. [mirror] makes
    every build stage its sources from a checksum-verified mirror archive
    (a missing or corrupted archive fails the build). [obs] (default
    {!Ospack_obs.Obs.disabled}) receives one span per installed node
    (named [install <name>], cat ["install"], with [node]/[hash] args,
    nesting the builder's phase spans), counters
    ([install.built]/[install.reused]/[install.externals],
    [buildcache.hits]/[buildcache.misses], [install.staging_failures])
    and a [build.node_seconds] histogram; it is also threaded into every
    {!Ospack_buildsim.Builder.build}. *)

val database : t -> Database.t
val vfs : t -> Ospack_vfs.Vfs.t
val install_root : t -> string

val install :
  t -> ?explicit:bool -> Ospack_spec.Concrete.t -> (outcome list, string) result
(** Install a concrete spec: {!install_parallel} at [~jobs:1], so one
    outcome per DAG node in install (dependencies-first) order. The
    root's record is marked explicit (unless [~explicit:false]). A failed
    node poisons only its own dependents; independent subtrees still
    install and are indexed, and the failures render as one
    {!failures_to_string} error. Never raises. *)

type node_error =
  | Build_failure of Ospack_buildsim.Builder.error
      (** the builder's typed error (staging / missing dep / step) *)
  | Install_failure of string
      (** non-build failure: cache extraction, missing package definition *)

type failure =
  | Failed of { f_node : string; f_hash : string; f_error : node_error }
      (** the node itself failed to build / extract *)
  | Poisoned of {
      p_node : string;
      p_hash : string;
      p_failed_deps : string list;  (** sorted names of the failed causes *)
    }
      (** never attempted because a transitive dependency failed *)

type slot = {
  sl_node : string;
  sl_hash : string;
  sl_worker : int;  (** [0 .. jobs-1] *)
  sl_start : float;  (** virtual seconds *)
  sl_finish : float;
}
(** One dispatch decision of the parallel scheduler. *)

type parallel_report = {
  pr_jobs : int;
  pr_outcomes : outcome list;  (** completed nodes, completion order *)
  pr_failures : failure list;
      (** failed nodes in dispatch order, then poisoned nodes in
          priority order; empty = full success *)
  pr_schedule : slot list;  (** dispatch order *)
  pr_makespan : float;  (** virtual end-to-end seconds at [-j jobs] *)
  pr_serial_seconds : float;  (** sum of node durations ([-j1] makespan) *)
}

val install_parallel :
  t ->
  ?explicit:bool ->
  jobs:int ->
  Ospack_spec.Concrete.t list ->
  (parallel_report, string) result
(** Install one or more concrete specs on a virtual-time pool of [jobs]
    simulated workers. Node DAGs are merged by sub-DAG hash (shared
    sub-DAGs schedule once); ready nodes (all dependencies done)
    dispatch in first-occurrence topological priority order to the
    longest-idle worker, so the schedule is a pure function of the
    input and [jobs] — every [-j] level produces identical database
    records, hashes, and store bytes, and (with tracing on)
    byte-identical traces run-to-run. At [jobs = 1] the dispatch order
    is the spec's {!Ospack_spec.Concrete.topological_order}.

    Failure handling is not fail-stop: a failed node poisons only its
    transitive dependents while independent subtrees keep building, and
    all failures aggregate into the typed [pr_failures] report. The
    on-disk index is persisted after every node attempt. [Error _] is
    returned only for invalid arguments ([jobs < 1]); build failures
    land in [pr_failures].

    Observability (when [obs] is enabled): a [schedule] span (cat
    [sched], args [jobs]/[nodes]) wrapping one [worker <i>] span per
    dispatch (nesting the node's [install <name>] span), the
    [sched.ready_queue] and [sched.idle_seconds] histograms sampled at
    each dispatch, and [sched.dispatches] / [sched.failures]
    counters. *)

val failure_to_string : failure -> string

val failures_to_string : failure list -> string
(** Multi-line rendering: a header counting failed and poisoned nodes,
    then one indented line per failure. *)

val parallel_speedup : parallel_report -> float
(** [pr_serial_seconds /. pr_makespan] ([1.0] for an empty schedule). *)

val parallel_summary_to_string : parallel_report -> string
(** ["makespan X s vs Y s serialized (Zx at -jN)"]. *)

val profile_input :
  specs:Ospack_spec.Concrete.t list ->
  parallel_report ->
  Ospack_obs.Profile.input
(** Extract the cost-weighted DAG and executed schedule for
    {!Ospack_obs.Profile.analyze}: spec DAGs merged by sub-DAG hash in
    first-occurrence order (exactly the scheduler's node table), node
    ids = hashes, labels = package names, costs = recorded slot
    durations (nodes absent from the schedule — reused or external —
    cost [0.]). Pure; pairs with the [specs] actually passed to
    {!install_parallel}. *)

val uninstall : t -> hash:string -> (Database.record, string) result
(** Remove an installed record and its prefix. Fails (removing nothing)
    when other installed specs depend on it. Never raises: prefix-removal
    and index-persistence failures surface as [Error]. *)

val total_build_seconds : t -> float
(** Sum of simulated build time across everything this installer built. *)

val stats : t -> stats
(** Snapshot of the cumulative accounting (mutating the returned record
    does not affect the installer). *)

type summary = {
  s_built : int;
  s_reused : int;
  s_cache_hits : int;
  s_cache_misses : int;
  s_externals : int;
}
(** Per-install classification of {!outcome} lists, for the CLI's
    one-line install summary. *)

val summary_of_outcomes : outcome list -> summary

val summary_to_string : summary -> string
(** ["N built, M reused"] plus [", K from cache"], [", K cache misses"]
    and [", K external"] segments when nonzero. *)

val push_to_cache : t -> Buildcache.t -> (int, string) result
(** Archive every locally built (non-external) record into a cache;
    returns how many records the cache now covers from this store. *)

type splice_result = {
  sp_record : Database.record;  (** the newly registered spliced install *)
  sp_old_hash : string;
  sp_new_hash : string;
  sp_replaced : string;  (** the dependency package that was swapped *)
  sp_rewired : int;  (** binaries whose RPATHs were rewritten *)
  sp_resolved : int;  (** binaries the loader re-verified, empty env *)
}

val splice :
  t -> hash:string -> replacement:Ospack_spec.Concrete.t ->
  (splice_result, string) result
(** [spack splice]: substitute one dependency's installed prefix into
    the cached binary for [hash] without rebuilding. The spliced DAG
    comes from {!Buildcache.splice_spec} (the replacement sub-DAG
    overrides same-named nodes; every node above it recomputes its
    hash); the cached entry re-extracts into the new root prefix with
    RPATHs rewired to the replacement's installed prefixes. Replaced
    nodes must already be installed — splicing never builds. Intermediate
    nodes rehashed only because a transitive dependency changed are not
    rebuilt: they register alias records mapping the new hash onto the
    old prefix, keeping the spliced DAG fully resolvable. The operation
    is bracketed by a pending marker and accepted only when
    {!Ospack_buildsim.Loader.verify_prefix} proves every simulated ELF
    object in the new prefix resolves with an {e empty} environment —
    the paper's §3.5 relocation invariant doing new work. *)

(** {1 The sharded on-disk index}

    The database persists as one file per record,
    [<install_root>/.spack-db/index/<2-hex>/<hash>.json] (a
    {!Sharded_dir}: the first two hex characters of the hash name the
    shard directory), holding the compact JSON
    [{"format":3,"record":...}] and written via write-then-rename. There is no manifest: the directory listing is
    the record set. A save writes only the files of changed records (and
    removes those of uninstalled ones), so per-node index cost is
    proportional to the change, not the store. A pending marker
    ([.spack-db/pending/<hash>]) brackets every prefix materialization;
    {!load_index} removes any prefix whose marker survived without an
    index entry, so a reloaded store is always a prefix of the completed
    one with no unindexed orphans. *)

type store_error =
  | Store_io of {
      se_action : string;  (** ["write"] / ["rename"] / ["read"] / ["remove"] *)
      se_path : string;
      se_cause : Ospack_vfs.Vfs.error;
    }
  | Store_corrupt of { se_path : string; se_reason : string }
      (** unparsable record file, or one in a format other than the one
          this installer writes (["unsupported format N"]) *)

val store_error_to_string : store_error -> string

val index_dir : t -> string
(** The root of the sharded index ([<install_root>/.spack-db/index]). *)

val record_path : t -> string -> string
(** Path of one record's file by hash. *)

val index_bytes_written : t -> int
(** Cumulative bytes this installer wrote persisting the index (record
    file payloads) — the quantity the sharding keeps proportional to the
    change. *)

val load_index : t -> (int, string) result
(** Merge the records of the on-disk index into this installer's database
    — how a fresh process picks up an existing store on the same
    filesystem. Reads every record file in the shard directories (one in
    another format is [Store_corrupt], and then nothing is merged; files
    directly under the index root are not read), and runs pending-marker
    crash recovery (orphaned prefixes are deleted and counted on the
    [db.recovered_orphans] obs counter). Returns the number of records
    merged ([Ok 0] when no index exists yet). *)
