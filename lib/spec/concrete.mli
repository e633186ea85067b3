(** Concrete specs: fully resolved build DAGs (paper §3.4, Fig. 7).

    A concrete spec satisfies the three conditions of §3.4: no missing
    dependencies, no virtual packages, and every parameter pinned. The DAG
    is keyed by package name — Spack's guarantee that no two configurations
    of one package appear in the same DAG (§3.2.1) makes the name a unique
    node id.

    Each node records which virtual interfaces it provides in this DAG
    (e.g. mvapich2 providing [mpi@:2.2]) so that queries like
    [spack find ^mpi@2:] can match installed specs. *)

module Smap = Ast.Smap
(** The same map as {!Ast.Smap}, so a node's variants serve as pinned
    abstract constraints without a copy. *)

type node = {
  name : string;
  version : Ospack_version.Version.t;
  compiler : string * Ospack_version.Version.t;
  variants : bool Smap.t;  (** every declared variant, fully valued *)
  arch : string;
  deps : string list;  (** dependency package names, sorted *)
  provided : (string * Ospack_version.Vlist.t) list;
      (** virtual interfaces this node provides, with provided versions *)
}

type t
(** A validated concrete spec DAG. It memoizes its sub-DAG hashes in a
    lazily computed field, so compare specs with {!equal}, never with
    [=], [compare], [List.mem] or [List.assoc]: those raise
    [Invalid_argument "compare: functional value"] while the memo is
    unforced, and return [false] for equal specs when only one side is
    forced. For the same reason a [t] is no polymorphic [Hashtbl] key.
    The same holds for any value holding a [t], such as
    [Database.record]. *)

type validation_error =
  | Missing_root of string
  | Missing_dep of { node : string; dep : string }
  | Cyclic of string list

val pp_validation_error : Format.formatter -> validation_error -> unit

val make : root:string -> node list -> (t, validation_error) result
(** Validate and build: the root and every referenced dependency must be
    present, and the dependency relation must be acyclic. *)

val make_hashed :
  root:string -> (node * string) list -> (t, validation_error) result
(** {!make}, with each node's hash given instead of computed: the memo
    starts full, so no lookup on the result hashes anything. The caller
    vouches that every given hash is {!node_hash} of its node over its
    dependencies' given hashes — [Environment.read_lock] checks exactly
    that once per node for all the DAGs of a lockfile. *)

val node_hash : node -> string list -> string
(** The hash of a node whose dependencies, in [deps] order, hash to the
    given strings: what {!dag_hash} computes for each node. *)

val root : t -> string
val root_node : t -> node

val node : t -> string -> node option
val node_exn : t -> string -> node

val nodes : t -> node list
(** All nodes, sorted by name. *)

val node_count : t -> int

val deps_of : t -> string -> node list
(** Direct dependencies of a node. *)

val subspec : t -> string -> t
(** The concrete sub-DAG rooted at a node — what Spack passes to a
    package's [install] method (§3.4: "a sub-DAG rooted at the current
    node"). Raises [Invalid_argument] for unknown nodes. The subspec
    shares its parent's hash memo. *)

val to_dag : t -> Ospack_dag.Dag.t

val topological_order : t -> string list
(** Dependencies before dependents (install order). *)

val dag_hash : t -> string -> string
(** 8-hex-character hash of the sub-DAG rooted at a node: the paper's
    basis for unique install prefixes (§3.4.2) and sub-DAG sharing
    (Fig. 9) — two equal sub-DAGs have equal hashes. Raises
    [Invalid_argument] for a node not in [t].

    Cost: the first lookup on a spec hashes its whole DAG once (one
    SHA-256 per node); later lookups are map lookups, and subspecs share
    the parent's memo. *)

val root_hash : t -> string
(** [dag_hash t (root t)], at the same cost. *)

val as_ast_node : node -> Ast.node
(** The node's parameters as pinned abstract constraints (for reuse checks
    and [when=] evaluation against installed specs). *)

val node_satisfies : node -> Ast.node -> bool
(** Does this concrete node satisfy an abstract constraint node? The
    constraint may name the package itself or a virtual interface the node
    provides (version constraints then check the provided versions). *)

val satisfies : t -> Ast.t -> bool
(** Does the spec satisfy an abstract query? The root must satisfy the
    query root (by name or provided virtual), and each dependency
    constraint must be satisfied by some node of the DAG. *)

val node_to_string : node -> string
(** Short form: [name@version%compiler@cver~debug+mpi=arch]. *)

val to_string : t -> string
(** Full single-line rendering: root followed by [^node] entries in
    dependency-name order. *)

val tree_string : t -> string
(** Multi-line ASCII dependency tree (like [spack spec]). *)

val equal : t -> t -> bool
(** Structural equality of root and nodes; the only correct comparison of
    two specs (see {!t}). *)

val to_json : t -> Ospack_json.Json.t
(** Structured serialization of the full DAG — ospack's [spec.json],
    the analogue of the spec file Spack stores for provenance (§3.4.3).
    {!of_json} inverts it exactly, independent of package-file drift. *)

val of_json : Ospack_json.Json.t -> (t, string) result
(** Parse and re-validate a serialized spec. *)

val node_to_json : node -> Ospack_json.Json.t
(** One node of {!to_json}'s [nodes] list: its parameters, provided
    virtuals and [deps] as given. *)

val node_of_json : Ospack_json.Json.t -> (node, string) result
(** Invert {!node_to_json}; nothing about [deps] is checked (that is
    {!make}'s job). *)

val pp : Format.formatter -> t -> unit
