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
      (** the fingerprinted concretization cache; always present (an empty
          one costs nothing), fingerprinted over this context's repository,
          compiler registry, and configuration *)
  ccache_path : string;
      (** where the concretization cache persists in the vfs
          ([<install_root>/.spack-db/ccache.json], next to the database
          index) *)
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
    on-disk index. *)

val save_ccache : t -> unit
(** Persist the concretization cache to [ccache_path] (crash-safe
    write-then-rename). Best-effort: a failed persist never fails the
    command that concretized. *)

val export_ccache : t -> string
(** The concretization cache serialized as JSON — the very bytes
    {!save_ccache} writes to [ccache_path] ({!Ospack_concretize.Ccache.to_string})
    and the bridge for warm
    starts across processes: write it to the real filesystem and pass it
    back as [create]'s [ccache_json] (the CLI's [--ccache FILE] flag).
    An export is only trusted on import if its fingerprint still
    matches. *)

val with_site_packages : t -> Ospack_package.Package.t list -> t
(** A context whose repository layers the given site packages in front of
    the existing ones (paper §4.3.2); shares the same filesystem and
    install store configuration but uses a fresh database. *)
