(** Package views: human-readable symlink projections of the install tree
    (paper §4.3.1).

    A view is a set of parameterized link rules like
    [/opt/${PACKAGE}-${VERSION}-${MPINAME}]. Each installed spec expands a
    rule to a link name; several installs may collide on one name (a view
    is "a projection from points in a high-dimensional space to a
    lower-dimensional space"), and the winner is chosen by site/user
    preference: [compiler_order] position first, then newer package
    version, then newer compiler, then hash — "Spack prefers newer
    versions of packages compiled with newer compilers to older packages
    built with older compilers". *)

type rule = string
(** A link-path template. Variables: [${PACKAGE}], [${VERSION}],
    [${COMPILER}], [${COMPILER_VERSION}], [${ARCH}], [${HASH}],
    [${MPINAME}], [${MPIVERSION}] (the last two from the spec's mpi
    provider, ["nompi"]/["0"] when absent). *)

val expand_rule : rule -> Ospack_spec.Concrete.t -> string
(** Expand a rule for a spec (root node parameters). Unknown [${...}]
    variables are left verbatim. *)

type link_report = {
  lr_link : string;  (** the symlink path *)
  lr_target : string;  (** chosen install prefix *)
  lr_shadowed : string list;  (** losing prefixes mapping to the same link *)
}

val sync :
  Ospack_vfs.Vfs.t ->
  config:Ospack_config.Config.t ->
  rules:rule list ->
  installed:(Ospack_spec.Concrete.t * string) list ->
  (link_report list, Ospack_vfs.Vfs.error) result
(** Materialize the view: for every rule and installed (spec, prefix),
    compute links, resolve conflicts by preference, and (re)create the
    symlinks. Existing links are updated; reports are sorted by link
    path. A link the filesystem refuses stops the sync with that
    {!Ospack_vfs.Vfs.error}; links made before it stay. Never raises. *)

type merge_report = {
  mr_linked : int;  (** files linked into the view *)
  mr_conflicts : (string * string * string) list;
      (** (relative path, winning prefix, losing prefix) for files several
          installs would place at the same location *)
}

val payload_files : Ospack_vfs.Vfs.t -> string -> string list
(** The prefix-relative paths of every regular file and symlink under an
    install prefix, in {!Ospack_vfs.Vfs.walk} order, skipping the
    [.spack] provenance directory: what a view or an extension
    activation links. *)

val merge :
  Ospack_vfs.Vfs.t ->
  config:Ospack_config.Config.t ->
  view_root:string ->
  installed:(Ospack_spec.Concrete.t * string) list ->
  (merge_report, Ospack_vfs.Vfs.error) result
(** A single merged tree: every payload file of every install is symlinked
    under [view_root] at its prefix-relative path (a [bin]/[lib]/[include]
    union, like a traditional [/usr/local]). When two installs collide on
    one path, the preferred spec (same order as {!sync}) keeps the link
    and the collision is reported. Provenance directories are skipped.
    A path the view cannot link — say, a regular file already at
    [view_root/lib/libelf.so] — stops the merge with that
    {!Ospack_vfs.Vfs.error} ([Already_exists]); links made before it
    stay. Never raises. *)
