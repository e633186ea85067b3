(** The command layer behind the {!Ospack} entry module. *)

(** The command layer: the operations the [spack] CLI exposes
    (install, uninstall, find, spec, providers, info, graph, module
    generation, views, extension activation), over a {!Context.t}.

    All commands take spec strings in the paper's syntax and return
    rendered or structured results; errors are human-readable strings. *)

type install_report = {
  ir_spec : Ospack_spec.Concrete.t;  (** what was concretized *)
  ir_outcomes : Ospack_store.Installer.outcome list;
      (** per-node results, dependencies first (completion order for a
          parallel install) *)
  ir_summary : Ospack_store.Installer.summary;
      (** typed classification of the outcomes (built / reused /
          cache hits / cache misses / externals) — the CLI's one-line
          install summary, never derived by string matching *)
  ir_parallel : Ospack_store.Installer.parallel_report option;
      (** scheduler report (makespan, schedule, speedup) when the
          install ran on the parallel worker pool ([jobs > 1]) *)
}

val spec :
  ?fresh:bool ->
  ?reuse:bool ->
  Context.t ->
  string ->
  (Ospack_spec.Concrete.t, string) result
(** Concretize without installing ([spack spec]), through the context's
    fingerprinted concretization cache: a repeat of an earlier query under
    the same packages/compilers/configuration returns the memoized result
    ([ccache.hits]), a miss is solved with the fixed point seeded from
    previously concretized sub-DAGs and stored back (persisted under the
    store root with crash-safe write-then-rename). Caching is
    observationally invisible — the result is byte-identical to a cold
    solve. [fresh] bypasses the cache entirely ([spack spec --fresh]);
    [reuse] first looks for an installed concrete spec satisfying the
    query and returns it as-is ([spack spec --reuse] — the store-aware
    reuse semantics, §3.2.3 generalized to concretization).

    A failure is rendered with its conflict explanation: the unsat core
    (clause backend) or the blocked decision path (greedy). Each failing
    query solves once where its solve was unseeded: under [fresh] on
    either backend, and on the clause backend's memoized path, the
    explanation is the failed solve's own. The greedy memoized solve is
    seeded from the cache, and seeds can change the blocked path, so its
    explanation comes from a second, unseeded solve. Unless [fresh], the
    failure memo keeps the explanation beside the error, so a repeat
    renders without solving. *)

val spec_explain :
  Context.t -> string ->
  (Ospack_spec.Concrete.t * string list, string) result
(** Concretize and also report the policy decisions taken — which provider
    each virtual resolved to and which version each multi-candidate
    package pinned, with candidate counts ([spack spec --explain]). *)

val solve :
  Context.t ->
  string ->
  (string * Ospack_concretize.Concretizer_intf.outcome, string) result
(** [spack solve]: run the context's selected concretizer backend and
    report (backend name, full outcome) — the result plus search
    statistics (decisions / propagations / conflicts / restarts /
    greedy runs / iterations) and, on failure, the human-readable
    conflict chain ({!Ospack_concretize.Concretizer_intf.outcome}).
    Never consults the concretization cache. *)

val install :
  ?fresh:bool ->
  ?jobs:int ->
  Context.t ->
  string ->
  (install_report, string) result
(** Concretize and install ([spack install]) through the deterministic
    scheduler ({!Ospack_store.Installer.install_parallel},
    [spack install -j N], default [-j1]): outcomes arrive in completion
    order (at [-j1], the topological order), any node failures aggregate
    into one rendered multi-failure error, and [jobs < 1] is an error.
    Only [jobs > 1] reports carry the scheduler's makespan
    ([ir_parallel]). The §4.5 hwloc pattern needs the context's backend
    set to {!Ospack_concretize.Backends.Clauses}.

    Unless [fresh] is set, an abstract request already satisfied by an
    installed configuration reuses it without re-concretizing — §3.2.3:
    "the user can save time if Spack already has a version installed that
    satisfies the spec". Among several satisfying installs the newest
    version (then lexicographically smallest hash) wins. [fresh:true]
    always concretizes against current packages and preferences,
    bypassing both the installed-spec reuse and the concretization
    cache. *)

type profile_report = {
  pf_spec : Ospack_spec.Concrete.t;
  pf_report : Ospack_store.Installer.parallel_report;
  pf_profile : Ospack_obs.Profile.t;
}

val profile :
  ?fresh:bool ->
  ?jobs:int ->
  Context.t ->
  string ->
  (profile_report, string) result
(** Concretize, install at [-j jobs] (default 1 — the topological
    order), and run the critical-path analyzer
    ({!Ospack_obs.Profile.analyze}) over the recorded schedule
    ([spack profile]). Like {!install}, runs the scheduler so a schedule
    exists to attribute; never takes [install]'s
    installed-spec shortcut — re-profiling an installed DAG reports
    all-zero costs (pure reuse). Node failures render as the same
    multi-failure error as [install]. *)

val find :
  Context.t -> ?query:string -> unit ->
  (Ospack_store.Database.record list, string) result
(** Installed specs, optionally filtered by an abstract query
    ([spack find mpileaks ^mpich]). A query may end with [/hashprefix] to
    address installs by DAG hash ([mpileaks/576c], or just [/576c]),
    Spack's disambiguator for otherwise-identical configurations. *)

val uninstall : Context.t -> string -> (Ospack_store.Database.record, string) result
(** Uninstall the unique installed spec matching the query; errors when
    the query is ambiguous, missing, or still depended upon. *)

val providers :
  Context.t -> string -> (Ospack_package.Provider_index.entry list, string) result
(** Providers of a virtual interface, filtered by any version constraint
    in the query ([spack providers mpi@2:]). *)

val info : Context.t -> string -> (string, string) result
(** Rendered package metadata ([spack info]): description, versions,
    variants, dependencies, virtuals provided. *)

val list_packages : Context.t -> ?substring:string -> unit -> string list
(** Package names, optionally filtered ([spack list]). *)

val graph_tree : Context.t -> string -> (string, string) result
(** ASCII dependency tree of the concretized spec ([spack graph]). *)

val graph_dot : Context.t -> string -> (string, string) result
(** Graphviz rendering of the concretized spec ([spack graph --dot]). *)

val generate_modules :
  Context.t -> [ `Dotkit | `Tcl | `Lmod ] -> (string list, string) result
(** Generate a module file for every installed spec into the context's
    module root; returns the written paths (§3.5.4). Lmod files are placed
    in a compiler/MPI hierarchy. *)

val view :
  Context.t -> rules:string list -> (Ospack_views.View.link_report list, string) result
(** Materialize a symlink view of everything installed (§4.3.1). *)

val view_merge :
  Context.t -> view_root:string -> (Ospack_views.View.merge_report, string) result
(** Materialize a single merged bin/lib/include tree of everything
    installed under [view_root], file-by-file, conflicts resolved by the
    same preference order as {!view}. *)

val view_closure :
  Context.t ->
  view_root:string ->
  Ospack_spec.Concrete.t list ->
  (Ospack_views.View.merge_report, string) result
(** Like {!view_merge}, but restricted to exactly the dependency closure
    of the given concrete DAGs: every node is resolved to its installed
    record by sub-DAG hash (an unindexed node is an error, never a
    silently thinner view). This is what environment views link, so N
    environments can share one store without seeing each other's
    installs. *)

val activate : Context.t -> string -> (string list, string) result
(** Activate an installed extension into its (installed) extendee
    ([spack activate py-numpy], §4.2). Path-index ([.pth]) files merge;
    other conflicts fail. Returns the linked/merged relative paths. *)

val deactivate : Context.t -> string -> (string list, string) result

val reproduce : Context.t -> prefix:string -> (install_report, string) result
(** Rebuild from the provenance stored in an installed prefix (§3.4.3).
    The structured [spec.json] restores the exact DAG without
    re-concretizing (immune to preference and package drift); prefixes
    lacking it fall back to re-concretizing the stored one-line spec. *)

val dependents : Context.t -> hash:string -> Ospack_store.Database.record list
(** Installed records that depend on the given install. *)

val buildcache_push : Context.t -> (int, string) result
(** Archive every locally built install into the context's binary cache
    ([spack buildcache create]); errors when the context was created
    without [cache_root]. *)

val splice :
  Context.t -> string -> replace:string ->
  (Ospack_store.Installer.splice_result, string) result
(** [spack splice <spec> --replace <dep-spec>]: rewire the cached binary
    of the unique installed spec matching the query onto a different
    dependency without rebuilding. The target is pushed to the build
    cache on demand, the replacement concretizes and installs through
    the ordinary path, and {!Ospack_store.Installer.splice} builds the
    spliced DAG (every node above the replacement recomputes its hash),
    rewires RPATHs to the replacement's installed prefix, and accepts
    the result only when every simulated ELF object in the new prefix
    resolves with an empty environment. Errors when the context has no
    [cache_root]. *)

val verify :
  Context.t -> ?query:string -> unit ->
  ((Ospack_store.Database.record * Ospack_store.Provenance.verify_report) list,
   string)
  result
(** Re-hash installed prefixes against their install manifests
    ([spack verify]): one report per matching record, listing missing,
    modified, and unexpected files. External vendor prefixes (which carry
    no manifest) are skipped. *)

val gc : Context.t -> (Ospack_store.Database.record list, string) result
(** Garbage-collect: repeatedly remove installs that were not explicitly
    requested and have no remaining dependents (like [spack gc]). Returns
    the removed records, dependents-first. Explicit installs and anything
    they need are kept; external vendor prefixes are deregistered but
    never deleted. *)

val compiler_list : Context.t -> string list
(** Rendered toolchain list ([spack compilers]). *)

val diff : Context.t -> string -> string -> (string list, string) result
(** Concretize two specs and describe how they differ ([spack diff]):
    one line per parameter that disagrees (version, compiler, variant,
    architecture, per node) and per node present on only one side.
    Empty list = identical configurations. *)

val extensions_of :
  Context.t -> string ->
  ((Ospack_store.Database.record * bool) list, string) result
(** Installed extensions of an extendee package ([spack extensions
    python]): each record paired with whether it is currently activated
    in the queried extendee's prefix. The argument is an installed-spec
    query that must resolve to a unique extendable install. *)
