module Concrete = Ospack_spec.Concrete
module Ast = Ospack_spec.Ast

type record = {
  r_spec : Concrete.t;
  r_hash : string;
  r_prefix : string;
  r_explicit : bool;
  r_external : bool;
  r_build_seconds : float;
}

type t = (string, record) Hashtbl.t

let create () = Hashtbl.create 64

let add t record =
  let record =
    match Hashtbl.find_opt t record.r_hash with
    | Some existing ->
        { record with r_explicit = record.r_explicit || existing.r_explicit }
    | None -> record
  in
  Hashtbl.replace t record.r_hash record

let find_by_hash t hash = Hashtbl.find_opt t hash

let sorted records =
  List.sort
    (fun a b ->
      match
        String.compare (Concrete.root a.r_spec) (Concrete.root b.r_spec)
      with
      | 0 -> String.compare a.r_hash b.r_hash
      | c -> c)
    records

let all t = Hashtbl.fold (fun _ r acc -> r :: acc) t [] |> sorted

let find_by_name t name =
  all t |> List.filter (fun r -> Concrete.root r.r_spec = name)

let find_satisfying t query =
  all t |> List.filter (fun r -> Concrete.satisfies r.r_spec query)

let count t = Hashtbl.length t

let dependents_of t hash =
  all t
  |> List.filter (fun r ->
         r.r_hash <> hash
         && List.exists
              (fun n ->
                n.Concrete.name <> Concrete.root r.r_spec
                && Concrete.dag_hash r.r_spec n.Concrete.name = hash)
              (Concrete.nodes r.r_spec))

module Json = Ospack_json.Json

let record_tail r =
  [
    ("hash", Json.String r.r_hash);
    ("prefix", Json.String r.r_prefix);
    ("explicit", Json.Bool r.r_explicit);
    ("external", Json.Bool r.r_external);
    ("build_seconds", Json.Float r.r_build_seconds);
  ]

let record_to_json r =
  Json.Obj (("spec", Concrete.to_json r.r_spec) :: record_tail r)

let record_format = 3

(* [{"format":3,"record":<record>}] and a newline. A record renders its
   spec first, so the spec's bytes follow the head directly and the
   rendering of the other fields follows them, its '{' dropped. *)
let record_file ?spec r =
  let spec =
    match spec with
    | Some (s : Concrete.rendered) when s.spec == r.r_spec -> s.json
    | _ -> (Concrete.render r.r_spec).json
  in
  let tail = Json.to_string (Json.Obj (record_tail r)) in
  String.concat ""
    [
      Printf.sprintf {|{"format":%d,"record":{"spec":|} record_format;
      spec;
      ",";
      String.sub tail 1 (String.length tail - 1);
      "}\n";
    ]

let to_json t =
  Json.Obj
    [
      ("format", Json.Int 1);
      ("records", Json.List (List.map record_to_json (all t)));
    ]

let ( let* ) = Result.bind

let record_of_json j =
  let str key =
    match Option.bind (Json.member key j) Json.get_string with
    | Some s -> Ok s
    | None -> Error (Printf.sprintf "db index: missing record field %s" key)
  in
  let boolean key =
    match Option.bind (Json.member key j) Json.get_bool with
    | Some b -> Ok b
    | None -> Error (Printf.sprintf "db index: missing record field %s" key)
  in
  let* spec =
    match Json.member "spec" j with
    | Some sj -> Concrete.of_json sj
    | None -> Error "db index: missing record spec"
  in
  let* hash = str "hash" in
  let* prefix = str "prefix" in
  let* explicit = boolean "explicit" in
  let* external_ = boolean "external" in
  let build_seconds =
    match Json.member "build_seconds" j with
    | Some (Json.Float f) -> f
    | Some (Json.Int i) -> float_of_int i
    | _ -> 0.0
  in
  Ok
    {
      r_spec = spec;
      r_hash = hash;
      r_prefix = prefix;
      r_explicit = explicit;
      r_external = external_;
      r_build_seconds = build_seconds;
    }

let record_of_file content =
  let* j = Json.of_string content in
  (* one on-disk format: anything but [record_format] is refused *)
  let format = Option.bind (Json.member "format" j) Json.get_int in
  match (format, Json.member "record" j) with
  | None, _ -> Error "missing format"
  | Some f, _ when f <> record_format ->
      Error (Printf.sprintf "unsupported format %d" f)
  | Some _, Some item -> record_of_json item
  | Some _, None -> Error "missing record"

let remove t hash =
  match find_by_hash t hash with
  | None -> Error (Printf.sprintf "no installed spec with hash %s" hash)
  | Some record -> (
      match dependents_of t hash with
      | [] ->
          Hashtbl.remove t hash;
          Ok record
      | deps ->
          Error
            (Printf.sprintf "%s/%s is still needed by: %s"
               (Concrete.root record.r_spec)
               hash
               (String.concat ", "
                  (List.map
                     (fun d ->
                       Printf.sprintf "%s/%s" (Concrete.root d.r_spec) d.r_hash)
                     deps))))
