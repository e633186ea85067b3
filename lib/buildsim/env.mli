(** Isolated build environments (paper §3.5.1).

    Spack builds in a dedicated process whose environment is
    constructed from scratch: [PATH] holds the dependencies' [bin]
    directories (so configure finds the right tools), [CC]/[CXX]/
    [F77]/[FC] point at the compiler wrappers, and
    [CMAKE_PREFIX_PATH]/[PKG_CONFIG_PATH] steer build systems at
    dependency prefixes. An environment here is an immutable map from
    variable names to colon-separated string values. *)

type t

val empty : t

val of_assoc : (string * string) list -> t
(** Later bindings win over earlier ones for the same name. *)

val get : t -> string -> string option
val set : t -> string -> string -> t

val prepend_path : t -> string -> string -> t
(** [prepend_path env var dir] prepends [dir] to the colon-separated
    list in [var] (creating the variable if unset). *)

val path_list : t -> string -> string list
(** The colon-separated components of a variable; [[]] when unset or
    empty. *)

val for_build :
  dep_prefixes:string list -> wrapper_dir:string -> base:t -> t
(** The paper's isolated build environment: starting from [base],
    - [PATH] gains each dependency's [<prefix>/bin], in order, ahead of
      anything inherited;
    - [CC]/[CXX]/[F77]/[FC] are pointed at the wrapper scripts in
      [wrapper_dir];
    - [LD_LIBRARY_PATH] is rebuilt from the dependencies' [lib]
      directories (inherited values are dropped — they are exactly the
      contamination §3.5.1 guards against);
    - [CMAKE_PREFIX_PATH] and [PKG_CONFIG_PATH] list the dependency
      prefixes and their [lib/pkgconfig] directories. *)
