(** Build provenance (paper §3.4.3).

    For reproducibility, Spack stores in each installation: the package
    file that built it, a build log, and the complete concrete spec. The
    spec file "can be used later to reproduce the build, even if
    concretization preferences have changed" — {!read_spec} returns the
    stored one-line concrete spec for exactly that purpose. *)

val dir : string
(** Name of the provenance directory inside a prefix ([".spack"]). *)

val write :
  Ospack_vfs.Vfs.t ->
  prefix:string ->
  spec:Ospack_spec.Concrete.rendered ->
  package_source:string ->
  log:string list ->
  (unit, Ospack_vfs.Vfs.error) result
(** Write [<prefix>/.spack/spec] (one-line form), [<prefix>/.spack/spec.json]
    (the full structured DAG: [spec]'s compact rendering and a newline),
    [<prefix>/.spack/build.log] and
    [<prefix>/.spack/package.source]. Stops at (and returns) the first
    failing write — never raises. *)

val read_spec : Ospack_vfs.Vfs.t -> prefix:string -> string option
(** The stored concrete spec line, if present. *)

val read_spec_json :
  Ospack_vfs.Vfs.t -> prefix:string -> (Ospack_spec.Concrete.t, string) result
(** The stored structured spec, exactly as installed — restores the DAG
    without re-concretizing, so the result is immune to package-file and
    preference drift (§3.4.3: "even if concretization preferences have
    changed"). *)

val read_log : Ospack_vfs.Vfs.t -> prefix:string -> string list option
val read_package_source : Ospack_vfs.Vfs.t -> prefix:string -> string option

(** {1 Install manifests}

    Every install records an MD5 manifest of its payload files (everything
    outside [.spack/]); {!verify_manifest} re-hashes the tree and reports
    drift — the integrity check behind [spack verify]. *)

type verify_report = {
  vr_missing : string list;  (** manifested files no longer present *)
  vr_modified : string list;  (** files whose content hash changed *)
  vr_extra : string list;  (** unmanifested files that appeared *)
}

val report_clean : verify_report -> bool

val manifest_entry :
  rel:string ->
  Ospack_vfs.Vfs.kind ->
  (unit -> string option) ->
  (string * string) option
(** The single "entry -> manifest line" function. [manifest_entry ~rel kind
    read] is [Some (rel, md5)] for a payload file (the MD5 of its bytes)
    or symlink (the MD5 of ["link:" ^ target]), where [read ()] yields
    those bytes or that target; it is [None] for a directory, for anything
    under [.spack] (whose name begins with {!dir}), and when [read] yields
    nothing. [read] is called only for a manifested entry. The prefix walk
    ({!payload}), the installer's build path and the buildcache extractor
    all use it, so a manifest taken from written bytes is byte-identical
    to one taken by walking. *)

val payload : Ospack_vfs.Vfs.t -> prefix:string -> (string * string) list
(** [(rel, md5)] of every payload entry of the prefix, in {!Ospack_vfs.Vfs.walk}
    order: the prefix is walked and every file re-read. {!verify_manifest}
    uses it; no install path does — a build, a buildcache pull and a
    splice each hand the installer the bytes they wrote
    ([Ospack_buildsim.Builder.br_payload],
    {!Buildcache.extract}, {!Buildcache.splice}), which it passes
    through {!manifest_entry}, so their manifests equal this walk's. *)

val render_manifest : (string * string) list -> string
(** The bytes of [manifest.json] for a payload: an object mapping each
    relative path to its MD5, compact (no indentation), with a trailing
    newline. *)

val write_manifest :
  Ospack_vfs.Vfs.t ->
  prefix:string ->
  (string * string) list ->
  (unit, Ospack_vfs.Vfs.error) result
(** Write [<prefix>/.spack/manifest.json] for the given payload — the
    [(rel, md5)] lines of what the builder, the extractor or the splice
    wrote. Never raises. *)

val verify_manifest :
  Ospack_vfs.Vfs.t -> prefix:string -> (verify_report, string) result
(** Compare the tree against the stored manifest. Errors when no manifest
    exists (e.g. external vendor prefixes). *)
