(** Source mirrors (paper §3.4.3 / §4.1).

    Sites without outside connectivity stage builds from a local
    mirror: a directory of source archives named
    [<package>-<version>.tar.gz], each with a recorded checksum. The
    builder fetches the staged archive from the mirror and verifies
    its md5 before unpacking — a tampered or truncated archive fails
    the build at staging time, never at run time. *)

type t

val create : Ospack_vfs.Vfs.t -> root:string -> t
(** A mirror rooted at a directory of the virtual filesystem. *)

val root : t -> string

val archive_rel : name:string -> version:Ospack_version.Version.t -> string
(** The mirror-relative archive name: [<name>-<version>.tar.gz]. *)

val archive_content :
  name:string -> version:Ospack_version.Version.t -> string
(** The canonical (deterministic) archive payload for a package
    version — the simulator's stand-in for a real tarball. *)

val populate :
  t -> Ospack_package.Repository.t -> (int, Ospack_vfs.Vfs.error) result
(** Mirror every declared version of every package in the repository,
    recording each archive's md5 in the mirror's checksum index.
    Returns the number of archives written, or the first write the
    filesystem refused (archives written before it stay). Never
    raises. *)

val add :
  t ->
  name:string ->
  version:Ospack_version.Version.t ->
  (unit, Ospack_vfs.Vfs.error) result
(** Mirror a single package version: the archive, then its checksum. *)

val fetch :
  t ->
  name:string ->
  version:Ospack_version.Version.t ->
  (string * string, string) result
(** [fetch t ~name ~version] reads the archive and verifies it against
    the recorded checksum, returning [(content, md5)]. Errors are
    human-readable: ["no archive ..."] when the file (or its recorded
    checksum) is absent, ["checksum mismatch ..."] when verification
    fails. *)
