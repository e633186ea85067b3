(** Package repositories (paper §4.3.2).

    A repository is a named collection of packages. Repositories layer:
    a site repository placed in front of the built-in one shadows packages
    by name, which is how sites ship proprietary packages and local tweaks
    without touching the mainline. *)

type t

val create : ?name:string -> Package.t list -> t
(** A single-layer repository. Raises [Invalid_argument] on duplicate
    package names within the layer. Each package's [p_source] is rewritten
    to ["<repo-name>:<package>"] for provenance. *)

val layered : t list -> t
(** Combine repositories; earlier ones take precedence. *)

val name : t -> string

val find : t -> string -> Package.t option
(** Highest-precedence package with the given name. *)

val find_exn : t -> string -> Package.t
(** Raises [Not_found]. *)

val mem : t -> string -> bool

val package_names : t -> string list
(** All visible (post-shadowing) package names, sorted. *)

val all_packages : t -> Package.t list
(** All visible packages, sorted by name. *)

val count : t -> int

val identity_hash : t -> string -> string
(** Hex SHA-256 of {!Package.identity_string} for the visible package of
    that name, or ["absent"] when there is none. Memoized in the
    repository value: every cache context, lockfile check and environment
    over one repository (one per process for the built-in universe)
    shares the hashes, so no closure is re-hashed per context. *)

val closest : t -> string -> string option
(** The package name nearest to a (presumably misspelled) query by edit
    distance, when one is reasonably close (distance ≤ 2, or ≤ a third of
    the query length for long names) — used for "did you mean" hints. *)
