(** A model of the dynamic loader (paper §2 and §3.5.2).

    HPC builds break at run time when [ld.so] resolves a NEEDED entry
    against the wrong library. The model reproduces the search order
    that matters for the paper's claim 2: each binary's own RPATH
    first, then [LD_LIBRARY_PATH], then the system directories. A
    Spack-built binary carries RPATHs for its whole link closure, so
    resolution succeeds with an empty environment; a native build in a
    nonstandard prefix does not. *)

type failure = {
  f_missing : string;  (** the soname that could not be resolved *)
  f_needed_by : string;  (** soname (or path) of the requesting binary *)
  f_searched : string list;  (** every directory tried, in order *)
}

val failure_to_string : failure -> string

val resolve :
  ?obs:Ospack_obs.Obs.t ->
  Ospack_vfs.Vfs.t ->
  path:string ->
  env:Env.t ->
  ((string * string) list, failure) result
(** [resolve vfs ~path ~env] loads the binary at [path] and resolves
    its NEEDED closure transitively, returning each distinct library
    once as [(soname, path)]. Every library's own RPATH takes effect
    for its own NEEDED entries, mirroring per-object DT_RPATH.
    Mutually-needing libraries terminate (each is resolved once).

    When [obs] is enabled, each call counts one [loader.resolutions],
    adds every candidate-path probe to [loader.probes], and records the
    per-call probe count in the [loader.probes_per_resolution]
    histogram. *)

val can_run :
  ?obs:Ospack_obs.Obs.t ->
  Ospack_vfs.Vfs.t ->
  path:string ->
  env:Env.t ->
  bool
(** Does the whole closure resolve? False when the binary itself is
    missing or unparseable. *)

val verify_prefix :
  ?obs:Ospack_obs.Obs.t ->
  Ospack_vfs.Vfs.t ->
  prefix:string ->
  env:Env.t ->
  (int, string * failure) result
(** Resolve every simulated ELF object found under [prefix] — the splice
    acceptance check: after rewiring RPATHs the whole prefix must still
    load with no environment help. Returns the number of objects
    resolved; the first failure wins, tagged with the path of the object
    that failed. *)
