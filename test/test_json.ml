(* The JSON substrate and the structured concrete-spec serialization
   behind spec.json (paper §3.4.3). *)

module Json = Ospack_json.Json
module Concrete = Ospack_spec.Concrete
module Concretizer = Ospack_concretize.Concretizer
module Universe = Ospack_repo.Universe
module Repository = Ospack_package.Repository

let parse_cases () =
  let ok src expected =
    match Json.of_string src with
    | Ok v -> Alcotest.(check bool) src true (v = expected)
    | Error e -> Alcotest.failf "%s: %s" src e
  in
  ok "null" Json.Null;
  ok "true" (Json.Bool true);
  ok "42" (Json.Int 42);
  ok "-7" (Json.Int (-7));
  ok "2.5" (Json.Float 2.5);
  ok "1e3" (Json.Float 1000.0);
  ok {|"hi"|} (Json.String "hi");
  ok {|"a\nb\t\"c\\"|} (Json.String "a\nb\t\"c\\");
  ok {|"Aé"|} (Json.String "A\xc3\xa9");
  ok "[]" (Json.List []);
  ok "[1, 2, 3]" (Json.List [ Json.Int 1; Json.Int 2; Json.Int 3 ]);
  ok "{}" (Json.Obj []);
  ok {| { "a" : 1, "b": [true, null] } |}
    (Json.Obj
       [ ("a", Json.Int 1); ("b", Json.List [ Json.Bool true; Json.Null ]) ])

let parse_errors () =
  let bad src =
    Alcotest.(check bool) src true (Result.is_error (Json.of_string src))
  in
  bad "";
  bad "{";
  bad "[1,]";
  bad "{\"a\":}";
  bad "\"unterminated";
  bad "tru";
  bad "1 2" (* trailing input *);
  bad "{'a': 1}" (* single quotes *);
  (* a \u escape is exactly four hex digits: no OCaml literal syntax *)
  let bad_u src =
    match Json.of_string src with
    | Ok _ -> Alcotest.failf "%s parsed" src
    | Error e ->
        Alcotest.(check bool) (src ^ ": " ^ e) true
          (Astring.String.is_infix ~affix:"bad \\u escape" e)
  in
  bad_u {|"\u0_41"|};
  bad_u {|"\u+041"|};
  (* lone surrogates are refused; a pair decodes to one 4-byte sequence *)
  bad_u {|"\ud83d"|};
  bad_u {|"\ud83dx"|};
  bad_u {|"\ud83d\u0041"|};
  bad_u {|"\ude00"|};
  Alcotest.(check bool) "surrogate pair" true
    (Json.of_string {|"\ud83d\ude00"|} = Ok (Json.String "\xf0\x9f\x98\x80"));
  Alcotest.(check bool) "BMP escape" true
    (Json.of_string {|"\u00e9\u20AC"|} = Ok (Json.String "\xc3\xa9\xe2\x82\xac"))

let accessors () =
  let v =
    Json.Obj [ ("s", Json.String "x"); ("n", Json.Int 3); ("b", Json.Bool true) ]
  in
  Alcotest.(check (option string)) "member string" (Some "x")
    (Option.bind (Json.member "s" v) Json.get_string);
  Alcotest.(check (option int)) "member int" (Some 3)
    (Option.bind (Json.member "n" v) Json.get_int);
  Alcotest.(check (option bool)) "member bool" (Some true)
    (Option.bind (Json.member "b" v) Json.get_bool);
  Alcotest.(check bool) "missing member" true (Json.member "zz" v = None);
  Alcotest.(check bool) "type mismatch" true
    (Option.bind (Json.member "s" v) Json.get_int = None)

(* trace output must round-trip and golden-diff cleanly: fixed-point
   decimals, never exponent notation, shortest round-tripping mantissa *)
let float_formatting () =
  let shows f expected =
    Alcotest.(check string)
      (Printf.sprintf "render %h" f)
      expected
      (Json.to_string (Json.Float f))
  in
  shows 0.0002 "0.0002";
  shows 2.5 "2.5";
  shows 2.0 "2.0";
  shows (-0.5) "-0.5";
  shows 0.0 "0.0";
  shows 1e20 "100000000000000000000.0";
  shows 1.5e-7 "0.00000015";
  shows (-1.5e-7) "-0.00000015";
  shows 1e15 "1000000000000000.0";
  (* virtual-clock microsecond values, the trace hot case *)
  shows 200.0 "200.0";
  shows 1200.4 "1200.4";
  (* JSON cannot represent non-finite floats *)
  Alcotest.(check string) "nan" "null" (Json.to_string (Json.Float nan));
  Alcotest.(check string) "inf" "null" (Json.to_string (Json.Float infinity));
  (* no exponent notation, no locale separators, and exact round-trip for
     a spread of magnitudes *)
  List.iter
    (fun f ->
      let s = Json.to_string (Json.Float f) in
      Alcotest.(check bool)
        (s ^ " has no exponent") false
        (String.contains s 'e' || String.contains s 'E');
      Alcotest.(check bool)
        (s ^ " has no comma") false (String.contains s ',');
      match Json.of_string s with
      | Ok (Json.Float f') ->
          Alcotest.(check bool) (s ^ " round-trips") true (f = f')
      | Ok _ -> Alcotest.failf "%s reparsed as non-float" s
      | Error e -> Alcotest.failf "%s: %s" s e)
    [
      0.0002; 33.7; 1e-12; 6.02214076e23; 4.9e-324; 1.7976931348623157e308;
      0.1; (1.0 /. 3.0); -12345.678901234567;
    ]

let float_roundtrip =
  QCheck.Test.make ~name:"float rendering round-trips bit-exactly" ~count:500
    (QCheck.make
       ~print:(fun f -> Printf.sprintf "%h" f)
       QCheck.Gen.(
         map
           (fun (m, e) -> ldexp m e)
           (pair (float_bound_inclusive 1.0) (int_range (-60) 60))))
    (fun f ->
      match Json.of_string (Json.to_string (Json.Float f)) with
      | Ok (Json.Float f') -> f = f'
      | Ok (Json.Int i) -> float_of_int i = f
      | _ -> false)

(* The reference escaper: one byte at a time, as JSON specifies. The
   run-copying [to_string] must render every string exactly so. *)
let reference_escape s =
  let buf = Buffer.create (String.length s + 2) in
  Buffer.add_char buf '"';
  String.iter
    (fun c ->
      match c with
      | '"' -> Buffer.add_string buf "\\\""
      | '\\' -> Buffer.add_string buf "\\\\"
      | '\n' -> Buffer.add_string buf "\\n"
      | '\r' -> Buffer.add_string buf "\\r"
      | '\t' -> Buffer.add_string buf "\\t"
      | c when Char.code c < 0x20 ->
          Buffer.add_string buf (Printf.sprintf "\\u%04x" (Char.code c))
      | c -> Buffer.add_char buf c)
    s;
  Buffer.add_char buf '"';
  Buffer.contents buf

(* strings over every byte, weighted towards the ones that need escaping
   or start a multi-byte sequence *)
let any_byte =
  QCheck.Gen.(
    frequency
      [
        (3, printable);
        (1, oneofl [ '"'; '\\'; '\n'; '\r'; '\t'; '\000'; '\031'; '/' ]);
        (2, char);
      ])

let escape_oracle =
  QCheck.Test.make ~name:"to_string (String s) = reference escaper" ~count:1000
    (QCheck.make ~print:(Printf.sprintf "%S")
       QCheck.Gen.(string_size ~gen:any_byte (int_bound 40)))
    (fun s ->
      Json.to_string (Json.String s) = reference_escape s
      && Json.of_string (Json.to_string (Json.String s)) = Ok (Json.String s))

(* random JSON values; strings and keys range over every byte *)
let arb_json =
  let open QCheck.Gen in
  let leaf =
    oneof
      [
        return Json.Null;
        map (fun b -> Json.Bool b) bool;
        map (fun i -> Json.Int i) (int_range (-1000000) 1000000);
        map
          (fun (m, e) -> Json.Float (ldexp m e))
          (pair (float_bound_inclusive 1.0) (int_range (-40) 40));
        map (fun s -> Json.String s) (string_size ~gen:any_byte (int_bound 12));
      ]
  in
  let value =
    sized (fun n ->
        fix
          (fun self n ->
            if n <= 0 then leaf
            else
              frequency
                [
                  (2, leaf);
                  ( 1,
                    map (fun l -> Json.List l)
                      (list_size (int_bound 4) (self (n / 2))) );
                  ( 1,
                    map
                      (fun kvs ->
                        (* object keys must be unique for roundtrip equality *)
                        let seen = Hashtbl.create 4 in
                        Json.Obj
                          (List.filter
                             (fun (k, _) ->
                               if Hashtbl.mem seen k then false
                               else begin
                                 Hashtbl.add seen k ();
                                 true
                               end)
                             kvs))
                      (list_size (int_bound 4)
                         (pair
                            (string_size ~gen:any_byte (int_bound 8))
                            (self (n / 2)))) );
                ])
          (min n 12))
  in
  QCheck.make ~print:(fun v -> Json.to_string v) value

let roundtrip_compact =
  QCheck.Test.make ~name:"of_string inverts to_string (compact)" ~count:300
    arb_json
    (fun v -> Json.of_string (Json.to_string v) = Ok v)

let roundtrip_pretty =
  QCheck.Test.make ~name:"of_string inverts to_string (pretty)" ~count:300
    arb_json
    (fun v -> Json.of_string (Json.to_string ~indent:2 v) = Ok v)

(* --- concrete specs --- *)

let universe_ctx =
  lazy
    (Concretizer.make_ctx ~config:Universe.default_config
       ~compilers:Universe.compilers (Universe.repository ()))

let spec_roundtrip () =
  List.iter
    (fun spec ->
      match Concretizer.concretize_string (Lazy.force universe_ctx) spec with
      | Error e -> Alcotest.failf "%s: %s" spec e
      | Ok c -> (
          let j = Concrete.to_json c in
          (* through the text form too *)
          match Json.of_string (Json.to_string ~indent:2 j) with
          | Error e -> Alcotest.failf "%s: reparse: %s" spec e
          | Ok j2 -> (
              match Concrete.of_json j2 with
              | Error e -> Alcotest.failf "%s: of_json: %s" spec e
              | Ok c2 ->
                  Alcotest.(check bool) (spec ^ " round-trips") true
                    (Concrete.equal c c2);
                  Alcotest.(check string) (spec ^ " same hash")
                    (Concrete.root_hash c) (Concrete.root_hash c2))))
    [ "mpileaks"; "ares"; "python"; "trilinos"; "stat +gui" ]

let spec_roundtrip_universe =
  QCheck.Test.make ~name:"spec.json round-trips across the universe" ~count:60
    (QCheck.make
       ~print:(fun s -> s)
       (QCheck.Gen.oneofl
          (Repository.package_names (Universe.repository ())
          |> List.filter (fun n -> n <> "bgq-mpi" && n <> "cray-mpi"))))
    (fun name ->
      match
        Concretizer.concretize_string (Lazy.force universe_ctx) name
      with
      | Error _ -> QCheck.assume_fail ()
      | Ok c -> (
          match
            Json.of_string (Json.to_string (Concrete.to_json c))
          with
          | Error _ -> false
          | Ok j -> (
              match Concrete.of_json j with
              | Ok c2 -> Concrete.equal c c2
              | Error _ -> false)))

(* the one-line provenance spec (§3.4.3 fallback path): rendering a
   concrete spec and re-parsing it yields constraints the original
   satisfies, so re-concretization can reproduce the build *)
let oneline_provenance_roundtrip =
  QCheck.Test.make ~name:"one-line spec reparse is satisfied by the original"
    ~count:60
    (QCheck.make
       ~print:(fun s -> s)
       (QCheck.Gen.oneofl
          (Repository.package_names (Universe.repository ())
          |> List.filter (fun n -> n <> "bgq-mpi" && n <> "cray-mpi"))))
    (fun name ->
      match Concretizer.concretize_string (Lazy.force universe_ctx) name with
      | Error _ -> QCheck.assume_fail ()
      | Ok c -> (
          match Ospack_spec.Parser.parse (Concrete.to_string c) with
          | Error _ -> false
          | Ok ast -> Concrete.satisfies c ast))

let spec_json_rejects () =
  let bad j =
    Alcotest.(check bool) (Json.to_string j) true
      (Result.is_error (Concrete.of_json j))
  in
  bad (Json.Obj []);
  bad (Json.Obj [ ("root", Json.String "x") ]) (* no nodes *);
  bad
    (Json.Obj
       [ ("root", Json.String "x"); ("nodes", Json.List [ Json.Obj [] ]) ]);
  (* root not among nodes *)
  bad
    (Json.Obj
       [
         ("root", Json.String "ghost");
         ( "nodes",
           Json.List
             [
               Json.Obj
                 [
                   ("name", Json.String "x");
                   ("version", Json.String "1.0");
                   ( "compiler",
                     Json.Obj
                       [
                         ("name", Json.String "gcc");
                         ("version", Json.String "4.9.2");
                       ] );
                   ("variants", Json.Obj []);
                   ("arch", Json.String "linux");
                   ("deps", Json.List []);
                   ("provided", Json.List []);
                 ];
             ] );
       ])

let () =
  Alcotest.run "json"
    [
      ( "json",
        [
          Alcotest.test_case "parse cases" `Quick parse_cases;
          Alcotest.test_case "parse errors" `Quick parse_errors;
          Alcotest.test_case "accessors" `Quick accessors;
          Alcotest.test_case "float formatting (fixed-point)" `Quick
            float_formatting;
          QCheck_alcotest.to_alcotest float_roundtrip;
          QCheck_alcotest.to_alcotest roundtrip_compact;
          QCheck_alcotest.to_alcotest roundtrip_pretty;
          QCheck_alcotest.to_alcotest escape_oracle;
        ] );
      ( "spec-json",
        [
          Alcotest.test_case "round-trip with hashes" `Quick spec_roundtrip;
          QCheck_alcotest.to_alcotest spec_roundtrip_universe;
          QCheck_alcotest.to_alcotest oneline_provenance_roundtrip;
          Alcotest.test_case "malformed inputs rejected" `Quick
            spec_json_rejects;
        ] );
    ]
