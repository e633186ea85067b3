module Smap = Map.Make (String)
module Vlist = Ospack_version.Vlist

type compiler_req = { c_name : string; c_versions : Vlist.t }

type node = {
  name : string;
  versions : Vlist.t;
  compiler : compiler_req option;
  variants : bool Smap.t;
  arch : string option;
}

type t = { root : node; deps : node Smap.t }

let unconstrained name =
  {
    name;
    versions = Vlist.any;
    compiler = None;
    variants = Smap.empty;
    arch = None;
  }

let anonymous = unconstrained ""

let node_is_unconstrained n =
  Vlist.is_any n.versions && n.compiler = None
  && Smap.is_empty n.variants
  && n.arch = None

let with_versions versions n = { n with versions }
let with_compiler compiler n = { n with compiler }
let with_variant v enabled n = { n with variants = Smap.add v enabled n.variants }
let with_arch arch n = { n with arch }

let dep t name = Smap.find_opt name t.deps

let equal_compiler a b =
  match (a, b) with
  | None, None -> true
  | Some a, Some b -> a.c_name = b.c_name && Vlist.equal a.c_versions b.c_versions
  | _ -> false

let equal_node a b =
  a.name = b.name
  && Vlist.equal a.versions b.versions
  && equal_compiler a.compiler b.compiler
  && Smap.equal Bool.equal a.variants b.variants
  && a.arch = b.arch

let equal a b =
  equal_node a.root b.root && Smap.equal equal_node a.deps b.deps
