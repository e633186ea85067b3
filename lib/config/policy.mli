(** Site/user policy decisions used by the concretizer to resolve the
    parameters an abstract spec leaves open (paper §3.4, "Spack consults
    site and user policies to select the best possible provider", and
    §4.3.1's [compiler_order]).

    Recognized configuration keys:
    - [arch] — default target architecture.
    - [compiler_order] — comma-separated compiler preferences, each in
      spec syntax ([icc, gcc@4.4.7]); earlier entries win. Toolchains not
      listed rank after all listed ones (§4.3.1).
    - [providers.<virtual>] — provider preference for a virtual interface,
      e.g. [mpi = mvapich2, openmpi].
    - [packages.<name>.version] — preferred version list for a package.
    - [packages.<name>.variants] — variant defaults in spec syntax,
      e.g. [+debug~shared]. *)

val default_arch : Config.t -> string
(** The [arch] key; ["linux-x86_64"] when unset. *)

val compiler_order : Config.t -> Ospack_spec.Ast.compiler_req list
(** Parsed [compiler_order] entries, highest preference first. Entries
    that fail to parse are ignored. *)

val choose_toolchain :
  Config.t ->
  Compilers.t ->
  arch:string ->
  ?features:string list ->
  req:Ospack_spec.Ast.compiler_req option ->
  unit ->
  Compilers.toolchain option
(** The best toolchain on [arch] satisfying [req] (if any) and supporting
    every requested [features] entry (§4.5 compiler features): first by
    [compiler_order] position, then by a built-in vendor order
    (gcc, intel, clang, xl, pgi, cray, then alphabetical), then newest
    version first. [None] when no toolchain qualifies. *)

val provider_order : Config.t -> virtual_:string -> string list

val rank_provider : Config.t -> virtual_:string -> string -> int
(** Position in [providers.<virtual>] (0-based); [max_int] when unlisted,
    so unlisted providers sort after listed ones. Partially applied to a
    virtual it reads the configuration once, for every provider ranked
    after. *)

val configured_packages : Config.t -> string list
(** The packages with a [packages.<name>.version] or
    [packages.<name>.variants] key, sorted. Every other package has no
    version or variant preference. *)

val preferred_versions :
  Config.t -> package:string -> Ospack_version.Vlist.t option
(** The [packages.<name>.version] preference as a version list. *)

val choose_version :
  Config.t ->
  package:string ->
  candidates:Ospack_version.Version.t list ->
  constraint_:Ospack_version.Vlist.t ->
  Ospack_version.Version.t option
(** The version the concretizer pins: the newest candidate satisfying both
    the constraint and the site preference when one matches; otherwise the
    newest candidate satisfying the constraint; otherwise — when the
    constraint demands one exact version that is not a known candidate —
    that version itself (the paper's URL-extrapolation of unknown
    versions, §3.2.3). [None] when nothing qualifies. *)

val variant_preference : Config.t -> package:string -> (string * bool) list
(** Parsed [packages.<name>.variants] settings, e.g.
    [[("debug", true); ("shared", false)]]. *)

val external_for :
  Config.t -> package:string -> (Ospack_spec.Ast.t * string) option
(** The [externals.<name>] declaration, if any: a vendor- or site-supplied
    installation outside the store (paper §4.4, "exploits vendor- or
    site-supplied MPI installations"). The value format is
    [<spec> | <prefix>], e.g.
    [externals.mvapich2 = mvapich2@1.9%gcc@4.9.2 | /opt/vendor/mvapich2].
    The installer uses the prefix instead of building when the concretized
    package satisfies the spec. Returns [None] on missing or malformed
    entries. *)
