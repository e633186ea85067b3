(** Abstract specs: partially-constrained build configurations
    (paper §3.2).

    An abstract spec constrains any subset of the five per-package
    parameters (version, compiler, compiler version, variants, target
    architecture) on the root package and on any of its transitive
    dependencies. Because a DAG never contains two versions of one package
    (§3.2.1), dependency constraints are stored flat, keyed by package
    name — exactly why the paper's [^dep] syntax needs no nesting. *)

module Smap : Map.S with type key = string

type compiler_req = { c_name : string; c_versions : Ospack_version.Vlist.t }

type node = {
  name : string;  (** [""] for anonymous specs (used in [when=] clauses). *)
  versions : Ospack_version.Vlist.t;  (** {!Ospack_version.Vlist.any} when unconstrained. *)
  compiler : compiler_req option;
  variants : bool Smap.t;  (** only the variants explicitly constrained *)
  arch : string option;
}

type t = {
  root : node;
  deps : node Smap.t;  (** constraints on named dependencies, flat *)
}

val unconstrained : string -> node
(** A node constraining nothing but the package name. *)

val anonymous : node
(** The empty anonymous node — satisfied by anything. *)

val node_is_unconstrained : node -> bool
(** True when only the name is set. *)

val with_versions : Ospack_version.Vlist.t -> node -> node
val with_compiler : compiler_req option -> node -> node
val with_variant : string -> bool -> node -> node
val with_arch : string option -> node -> node

val dep : t -> string -> node option

val equal_node : node -> node -> bool
val equal : t -> t -> bool
