(** The build simulator (paper §3.5.3).

    A build stages sources (optionally from a {!Mirror}, with checksum
    verification), constructs the isolated environment of §3.5.1,
    interprets the package's recipe step by step against the virtual
    filesystem, and charges a virtual clock from the package's
    {!Ospack_package.Build_model} and the staging filesystem's
    {!Fsmodel}:

    - each configure/cmake probe costs {e 0.02 s} of work plus
      {e 6} metadata operations;
    - each compile costs the model's [compile_seconds] plus one
      metadata operation per header opened;
    - each link costs {e 0.4 s} plus {e 4} metadata operations;
    - installation costs {e 2} metadata operations per installed file;
    - when wrappers are enabled, every compiler invocation (probe,
      compile, or link) pays {e 4 ms} of wrapper script overhead.

    A metadata operation costs [fs_meta_seconds] of the staging
    filesystem — 0.2 ms on tmpfs, 2 ms on NFS — which reproduces the
    overhead bands of the paper's Figs. 10/11.

    Installation always produces the package's payload triple
    [bin/<name>], [lib/lib<name>.so], [include/<name>.h]; the binaries
    carry NEEDED entries for the spec's link dependencies and, when
    built with wrappers, RPATHs to their prefixes — the mechanism
    behind the paper's claim 2. *)

type result = {
  br_log : string list;  (** the simulated build log, in order *)
  br_time : float;  (** virtual-clock seconds the build took *)
  br_invocations : int;
      (** compiler invocations: configure probes + compiles + links *)
  br_payload : (string * string) list;
      (** [(rel, content)] of every file the build wrote under the
          prefix (the last write to a path winning), [rel] relative to
          the prefix, in {!Ospack_vfs.Vfs.walk} order (depth-first,
          names sorted within each directory). On a fresh prefix these
          are exactly the prefix's files, so the installer writes the
          install manifest from them instead of walking the prefix and
          reading every file back. *)
}

type error =
  | Staging of { node : string; reason : string }
      (** mirror fetch / checksum verification failed *)
  | Missing_dep of { node : string; dep : string }
      (** a spec dependency has no installed prefix *)
  | Step_failed of { node : string; reason : string }
      (** a recipe step failed (e.g. a VFS write error) *)

val error_to_string : error -> string
(** Render an error exactly as the historical string errors read, so
    messages shown to users are unchanged. *)

val installed_library : prefix:string -> package:string -> string
(** [<prefix>/lib/lib<package>.so] (keeping an existing [lib] prefix). *)

val installed_executable : prefix:string -> package:string -> string
(** [<prefix>/bin/<package>]. *)

val build :
  ?obs:Ospack_obs.Obs.t ->
  vfs:Ospack_vfs.Vfs.t ->
  fs:Fsmodel.t ->
  compilers:Ospack_config.Compilers.t ->
  use_wrappers:bool ->
  mirror:Mirror.t option ->
  stage_root:string ->
  spec:Ospack_spec.Concrete.t ->
  node:string ->
  pkg:Ospack_package.Package.t ->
  prefix:string ->
  dep_prefix:(string -> string option) ->
  unit ->
  (result, error) Stdlib.result
(** Build [node] of [spec] into [prefix]. Fails without touching the
    prefix when a spec dependency has no installed prefix
    ([dep_prefix] returns [None]) or when mirror staging fails
    checksum verification.

    When [obs] is an enabled sink (default
    {!Ospack_obs.Obs.disabled}), the build records spans for each
    phase ([build.stage], [build.configure], [build.compile],
    [build.link], [build.install], [build.patch]) and counters for
    metadata operations, wrapper invocations, mirror fetches and RPATH
    rewrites. Every virtual-clock charge is mirrored onto the obs
    clock in the same order and amount, so traces are deterministic
    and [br_time] — computed from the builder's own clock — is
    unaffected by instrumentation. *)
