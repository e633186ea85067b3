(** A complete ospack instance: repository, configuration, compiler
    registry, concretizer, virtual filesystem, and install store — what
    the [spack] command carries implicitly in its process state. *)

type t = {
  vfs : Ospack_vfs.Vfs.t;
  config : Ospack_config.Config.t;
  repo : Ospack_package.Repository.t;
  compilers : Ospack_config.Compilers.t;
  cctx : Ospack_concretize.Concretizer.ctx;
  backend : Ospack_concretize.Backends.t;
      (** which concretizer backend [spec]/[install]/[solve] route
          through; part of the concretization-cache fingerprint *)
  installer : Ospack_store.Installer.t;
  cache : Ospack_store.Buildcache.t option;
      (** binary build cache, when enabled via [cache_root] *)
  ccache : Ospack_concretize.Ccache.t;
      (** the fingerprinted concretization cache, fingerprinted over this
          context's repository, compiler registry, configuration and
          backend; backed by one file per entry under [ccache_path] and
          read back lazily, one entry per lookup miss *)
  ccache_path : string;
      (** the concretization cache's root directory in the vfs
          (["/ospack/cache/concretize"], a {!Ospack_vfs.Sharded_dir}):
          outside every install tree, because the cache is a function of
          the inputs above and never of the store *)
  obs : Ospack_obs.Obs.t;
      (** the observability sink every layer records into; disabled (and
          therefore free) unless [create] was given an enabled one *)
  module_root : string;  (** where generated module files are written *)
}

val create :
  ?config:Ospack_config.Config.t ->
  ?repo:Ospack_package.Repository.t ->
  ?compilers:Ospack_config.Compilers.t ->
  ?fs:Ospack_buildsim.Fsmodel.t ->
  ?scheme:Ospack_layout.Layout.scheme ->
  ?install_root:string ->
  ?cache_root:string ->
  ?ccache_json:string ->
  ?vfs:Ospack_vfs.Vfs.t ->
  ?obs:Ospack_obs.Obs.t ->
  ?backend:Ospack_concretize.Backends.t ->
  unit ->
  t
(** Defaults: the built-in 245-package universe, the LLNL-flavored site
    configuration, the full toolchain registry, a tmpfs stage, and the
    Spack-default layout under ["/ospack/opt"], all on a fresh virtual
    filesystem. [cache_root] enables a binary build cache at that path:
    installs pull matching hashes from it, and {!Commands.buildcache_push}
    archives built trees into it. [vfs] opens the context over an existing
    filesystem instead of a fresh one — how crash-recovery code (and the
    torture harnesses) re-open a store a previous context left behind;
    pair it with {!Ospack_store.Installer.load_index} to adopt the
    on-disk index. Creating a context reads nothing of the concretization
    cache: its entries under [ccache_path] are read back one per lookup
    miss. [ccache_json] imports a {!export_ccache} document, validated
    entry by entry, and persists its survivors there. *)

val save_ccache : t -> unit
(** Persist the entries stored since the previous save, one file each
    under [ccache_path] (crash-safe write-then-rename); a miss therefore
    writes one entry, however large the cache. Best-effort: a failed
    persist never fails the command that concretized. *)

val export_ccache : t -> string
(** The in-memory concretization cache as one format-2 JSON document
    ([Json.to_string ~indent:2] of {!Ospack_concretize.Ccache.to_json}):
    the bridge for warm starts across processes. Write it to the real
    filesystem and pass it back as [create]'s [ccache_json] (the CLI's
    [--ccache FILE] flag); the import validates every entry eagerly and
    persists the survivors under [ccache_path]. *)

val with_site_packages : t -> Ospack_package.Package.t list -> t
(** A context whose repository layers the given site packages in front of
    the existing ones (paper §4.3.2); shares the same filesystem and
    install store configuration but uses a fresh database. *)
