(** The install database: every installed configuration, addressed by its
    sub-DAG hash (paper §3.4.2).

    Each record's spec is the concrete sub-DAG rooted at the installed
    package, so two top-level installs that share a sub-DAG (the paper's
    Fig. 9: mpileaks with mpich, then with openmpi) share the records —
    and hence the installs — of the common subtree. *)

type record = {
  r_spec : Ospack_spec.Concrete.t;  (** sub-DAG rooted at the package *)
  r_hash : string;  (** [Concrete.root_hash r_spec] *)
  r_prefix : string;
  r_explicit : bool;  (** installed by user request, not as a dependency *)
  r_external : bool;
      (** a vendor/site install outside the store (§4.4); never built and
          its prefix is never removed by uninstall *)
  r_build_seconds : float;  (** simulated build time (0 when reused) *)
}
(** Holds a {!Ospack_spec.Concrete.t}, so never compare records with [=]
    or [compare]: compare their [r_hash], or their specs with
    [Concrete.equal]. *)

type t

val create : unit -> t

val add : t -> record -> unit
(** Idempotent per hash (re-adding overwrites, preserving [r_explicit] if
    either record was explicit). *)

val find_by_hash : t -> string -> record option

val find_by_name : t -> string -> record list
(** Installed configurations of one package, sorted by hash. *)

val find_satisfying : t -> Ospack_spec.Ast.t -> record list
(** Records whose spec satisfies an abstract query — the reuse check of
    §3.2.3 ("Spack will use the previously-built installation"). *)

val all : t -> record list
(** Sorted by package name, then hash. *)

val count : t -> int

val dependents_of : t -> string -> record list
(** Records whose spec contains the given hash as a {e non-root} node —
    the installs that would break if it were removed. *)

val remove : t -> string -> (record, string) result
(** Remove by hash; fails with a message naming dependents when other
    installed records still depend on it. *)

val to_json : t -> Ospack_json.Json.t
(** Serialize the whole database (records sorted by name/hash) — the
    canonical rendering store comparisons and [--index-out] use; the
    installer itself persists one {!record_to_json} file per record. *)

val record_to_json : record -> Ospack_json.Json.t
(** One record in the same shape {!to_json} uses — the unit the sharded
    index persists, one file per record. *)

val record_file : ?spec:Ospack_spec.Concrete.rendered -> record -> string
(** A record file: the compact rendering of
    [{"format":3,"record":record_to_json r}] and a newline, byte for
    byte. When [spec] was rendered from [r]'s own spec value (the same
    value, not merely an equal one), its bytes are used instead of
    rendering the spec again. *)

val record_of_json : Ospack_json.Json.t -> (record, string) result
(** Inverse of {!record_to_json}. *)

val record_of_file : string -> (record, string) result
(** Inverse of {!record_file}. Format 3 is the only one read: any other
    is [Error "unsupported format N"]. *)
