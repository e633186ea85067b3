(* The spec language: lexer, the Fig. 3 grammar (incl. every Table 2
   example), printer round-trips, constraint intersection/satisfaction,
   and concrete spec DAGs with hashing. *)

module Ast = Ospack_spec.Ast
module Lexer = Ospack_spec.Lexer
module Parser = Ospack_spec.Parser
module Printer = Ospack_spec.Printer
module Constraint_ops = Ospack_spec.Constraint_ops
module Concrete = Ospack_spec.Concrete
module Version = Ospack_version.Version
module Vlist = Ospack_version.Vlist
module Sha256 = Ospack_hash.Sha256
module Concretizer = Ospack_concretize.Concretizer
module Universe = Ospack_repo.Universe
module Repository = Ospack_package.Repository

let parse = Parser.parse_exn

let lexer_cases () =
  let toks s =
    match Lexer.tokenize s with
    | Ok ts -> ts
    | Error e -> Alcotest.failf "lex error: %s" e
  in
  Alcotest.(check int) "simple id" 1 (List.length (toks "mpileaks"));
  Alcotest.(check bool) "dash inside id" true
    (toks "openmpi-1.4" = [ Lexer.Id "openmpi-1.4" ]);
  Alcotest.(check bool) "dash after space is minus" true
    (toks "a -debug" = [ Lexer.Id "a"; Lexer.Minus; Lexer.Id "debug" ]);
  Alcotest.(check bool) "punctuation" true
    (toks "@+~%=^,:"
    = [ Lexer.At; Lexer.Plus; Lexer.Tilde; Lexer.Percent; Lexer.Equals;
        Lexer.Caret; Lexer.Comma; Lexer.Colon ]);
  Alcotest.(check bool) "bad character" true
    (Result.is_error (Lexer.tokenize "foo!bar"))

(* Table 2 of the paper: every example must parse to the meaning given *)
let table2 () =
  let t = parse "mpileaks" in
  Alcotest.(check string) "1: bare package" "mpileaks" t.Ast.root.Ast.name;
  Alcotest.(check bool) "1: unconstrained" true
    (Ast.node_is_unconstrained t.Ast.root);

  let t = parse "mpileaks@1.1.2" in
  Alcotest.(check (option string)) "2: version" (Some "1.1.2")
    (Option.map Version.to_string (Vlist.concrete t.Ast.root.Ast.versions));

  let t = parse "mpileaks@1.1.2 %gcc" in
  (match t.Ast.root.Ast.compiler with
  | Some c ->
      Alcotest.(check string) "3: compiler name" "gcc" c.Ast.c_name;
      Alcotest.(check bool) "3: default version" true (Vlist.is_any c.Ast.c_versions)
  | None -> Alcotest.fail "3: compiler expected");

  let t = parse "mpileaks@1.1.2 %intel@14.1 +debug" in
  (match t.Ast.root.Ast.compiler with
  | Some c ->
      Alcotest.(check string) "4: intel" "intel" c.Ast.c_name;
      Alcotest.(check bool) "4: 14.1" true (Vlist.mem (Version.of_string "14.1") c.Ast.c_versions)
  | None -> Alcotest.fail "4: compiler expected");
  Alcotest.(check (option bool)) "4: +debug" (Some true)
    (Ast.Smap.find_opt "debug" t.Ast.root.Ast.variants);

  let t = parse "mpileaks@1.1.2 =bgq" in
  Alcotest.(check (option string)) "5: platform" (Some "bgq") t.Ast.root.Ast.arch;

  let t = parse "mpileaks@1.1.2 ^mvapich2@1.9" in
  (match Ast.dep t "mvapich2" with
  | Some d ->
      Alcotest.(check bool) "6: dep version" true
        (Vlist.mem (Version.of_string "1.9") d.Ast.versions)
  | None -> Alcotest.fail "6: dependency expected");

  let t =
    parse
      "mpileaks @1.2:1.4 %gcc@4.7.5 -debug =bgq ^callpath @1.1 %gcc@4.7.2 \
       ^openmpi @1.4.7"
  in
  Alcotest.(check bool) "7: root version range" true
    (Vlist.mem (Version.of_string "1.3") t.Ast.root.Ast.versions);
  Alcotest.(check bool) "7: range excludes 1.5" false
    (Vlist.mem (Version.of_string "1.5") t.Ast.root.Ast.versions);
  Alcotest.(check (option bool)) "7: -debug disabled" (Some false)
    (Ast.Smap.find_opt "debug" t.Ast.root.Ast.variants);
  Alcotest.(check (option string)) "7: =bgq" (Some "bgq") t.Ast.root.Ast.arch;
  (match Ast.dep t "callpath" with
  | Some d ->
      (match d.Ast.compiler with
      | Some c -> Alcotest.(check string) "7: callpath compiler" "gcc" c.Ast.c_name
      | None -> Alcotest.fail "7: callpath compiler expected")
  | None -> Alcotest.fail "7: callpath expected");
  Alcotest.(check bool) "7: openmpi dep" true (Ast.dep t "openmpi" <> None)

let parser_details () =
  (* anonymous specs for when= clauses *)
  let t = parse "%gcc@:4" in
  Alcotest.(check string) "anonymous name" "" t.Ast.root.Ast.name;
  (* repeated version constraints intersect *)
  let t = parse "pkg@1.0: @:2.0" in
  Alcotest.(check bool) "intersected range" true
    (Vlist.mem (Version.of_string "1.5") t.Ast.root.Ast.versions
    && not (Vlist.mem (Version.of_string "2.5") t.Ast.root.Ast.versions));
  (* repeated dep constraints merge *)
  let t = parse "a ^b@1.0 ^b+x" in
  (match Ast.dep t "b" with
  | Some d ->
      Alcotest.(check (option bool)) "merged variant" (Some true)
        (Ast.Smap.find_opt "x" d.Ast.variants);
      Alcotest.(check bool) "merged version" true
        (Vlist.mem (Version.of_string "1.0") d.Ast.versions)
  | None -> Alcotest.fail "dep b expected");
  (* ~variant equals -variant *)
  let a = parse "p ~debug" and b = parse "p -debug" in
  Alcotest.(check bool) "tilde = minus" true (Ast.equal a b)

let parser_errors () =
  let fails s = Alcotest.(check bool) s true (Result.is_error (Parser.parse s)) in
  fails "";
  fails "a b";
  fails "a @";
  fails "a +";
  fails "a %";
  fails "a =";
  fails "a ^";
  fails "a ^@1.2" (* dependency must be named *);
  fails "a@1.2 @2.0" (* unsatisfiable version intersection *);
  fails "a+debug~debug" (* contradictory variant *);
  fails "a=bgq=linux" (* contradictory arch *);
  fails "a@2.0:1.0" (* empty range *);
  Alcotest.(check bool) "parse_node rejects deps" true
    (Result.is_error (Parser.parse_node "a ^b"))

let print_parse_roundtrip () =
  List.iter
    (fun s ->
      let t = parse s in
      let printed = Printer.to_string t in
      match Parser.parse printed with
      | Ok t2 ->
          Alcotest.(check bool) (s ^ " round-trips via " ^ printed) true
            (Ast.equal t t2)
      | Error e -> Alcotest.failf "%s printed as unparseable %s: %s" s printed e)
    [
      "mpileaks";
      "mpileaks@1.1.2 %intel@14.1 +debug ~shared =bgq";
      "mpileaks @1.2:1.4,1.6: ^callpath@1.1%gcc@4.7.2 ^openmpi@1.4.7";
      "%gcc@:4";
      "@2.4 +x -y =linux";
    ]

(* every form the Fig. 3 grammar can produce, one representative (or a
   few) per production: the printer must emit syntax the parser maps back
   to the same AST — parse (print (parse s)) = parse s *)
let roundtrip_every_form () =
  let check_rt s =
    let t = parse s in
    let printed = Printer.to_string t in
    match Parser.parse printed with
    | Ok t2 ->
        if not (Ast.equal t t2) then
          Alcotest.failf "%s printed as %s which parses differently" s
            printed
    | Error e -> Alcotest.failf "%s printed as unparseable %s: %s" s printed e
  in
  List.iter check_rt
    [
      (* bare package *)
      "mpileaks";
      (* version constraints: point, ranges open and closed, unions *)
      "mpileaks@1.1.2";
      "mpileaks@1.2:";
      "mpileaks@:1.4";
      "mpileaks@1.2:1.4";
      "mpileaks@1.2:1.4,1.6:";
      "mpileaks@1.0,1.2:1.4,2:";
      (* variants: enabled, disabled via ~ and via - *)
      "mpileaks+debug";
      "mpileaks~shared";
      "mpileaks -shared";
      "mpileaks+debug+mpi~shared";
      (* compilers: bare, versioned, version lists *)
      "mpileaks%gcc";
      "mpileaks%gcc@4.7.3";
      "mpileaks%gcc@4.7:4.9,5.1";
      "mpileaks%intel@14.1:";
      (* architecture *)
      "mpileaks=bgq";
      (* everything on one node *)
      "mpileaks@1.1.2%intel@14.1+debug~shared=bgq";
      (* dependencies: bare, constrained, fully constrained, several *)
      "mpileaks ^mpich";
      "mpileaks ^mpich@1.9";
      "mpileaks ^mpich@1.9%gcc@4.7.2+debug=linux";
      "mpileaks ^callpath@1.1 ^openmpi@1.4.7";
      "mpileaks@1.2:1.4%gcc@4.7.5-debug=bgq ^callpath@1.1%gcc@4.7.2 \
       ^openmpi@1.4.7";
      (* repeated constraints on the same node or dep merge before
         printing, so the printed form is the normalized one *)
      "pkg@1.0: @:2.0";
      "a ^b@1.0 ^b+x";
      (* anonymous specs (when= clauses): each constraint kind alone *)
      "@2.4";
      "+debug";
      "~shared";
      "=bgq";
      "%gcc@:4";
      "@2.4 +x -y =linux";
      "%gcc@4.7.3+mpi";
    ];
  (* and every package in the universe under a battery of constraint
     suffixes — names with dashes/digits must survive the printer too *)
  let suffixes = [ ""; "@1:"; "+debug"; "%gcc@4:"; "=linux"; " ^zlib@1:" ] in
  List.iter
    (fun name ->
      List.iter (fun suffix -> check_rt (name ^ suffix)) suffixes)
    (Ospack_package.Repository.package_names
       (Ospack_repo.Universe.repository ()))

(* random abstract specs for the round-trip property *)
let arb_spec_string =
  let open QCheck.Gen in
  let name = oneofl [ "alpha"; "beta2"; "lib-c"; "d_e" ] in
  let ver = oneofl [ "1.0"; "1.2.3"; "2:"; ":3"; "1.2:1.4"; "1,2:" ] in
  let constraint_ =
    oneof
      [
        map (fun v -> "@" ^ v) ver;
        oneofl [ "+debug"; "~shared"; "+mpi" ];
        map (fun v -> "%gcc@" ^ v) (oneofl [ "4.7"; "4.9.2" ]);
        return "%intel";
        oneofl [ "=bgq"; "=linux" ];
      ]
  in
  let node =
    let* n = name in
    let* cs = list_size (int_bound 3) constraint_ in
    return (n ^ String.concat "" cs)
  in
  let gen =
    let* root = node in
    let* deps = list_size (int_bound 2) node in
    return (String.concat " ^" (root :: deps))
  in
  QCheck.make ~print:(fun s -> s) gen

let roundtrip_prop =
  QCheck.Test.make ~name:"print . parse = id on random specs" ~count:300
    arb_spec_string
    (fun s ->
      match Parser.parse s with
      | Error _ -> QCheck.assume_fail ()
      | Ok t -> (
          match Parser.parse (Printer.to_string t) with
          | Ok t2 -> Ast.equal t t2
          | Error _ -> false))

let lexer_error_positions () =
  (match Lexer.tokenize "abc !def" with
  | Error msg ->
      Alcotest.(check bool) "names the char and position" true
        (Astring.String.is_infix ~affix:"'!'" msg
        && Astring.String.is_infix ~affix:"position 4" msg)
  | Ok _ -> Alcotest.fail "expected lex error");
  match Parser.parse "pkg @" with
  | Error msg ->
      Alcotest.(check bool) "parse error carries the source" true
        (Astring.String.is_infix ~affix:"\"pkg @\"" msg)
  | Ok _ -> Alcotest.fail "expected parse error"

let compiler_version_lists () =
  (* compiler constraints accept full version lists *)
  let t = parse "p %gcc@4.7:4.9,5.1" in
  match t.Ast.root.Ast.compiler with
  | Some c ->
      let memv s = Vlist.mem (Version.of_string s) c.Ast.c_versions in
      Alcotest.(check bool) "4.8 in range" true (memv "4.8");
      Alcotest.(check bool) "5.1 in list" true (memv "5.1");
      Alcotest.(check bool) "5.0 not in list" false (memv "5.0")
  | None -> Alcotest.fail "compiler expected"

let universe_names_parse () =
  (* every package name in the universe is a valid spec in its own right
     and round-trips *)
  List.iter
    (fun name ->
      match Parser.parse name with
      | Ok t ->
          Alcotest.(check string) (name ^ " parses to itself") name
            (Printer.to_string t)
      | Error e -> Alcotest.failf "%s does not parse: %s" name e)
    (Ospack_package.Repository.package_names
       (Ospack_repo.Universe.repository ()))

(* --- constraint ops --- *)

let node_of s = (parse s).Ast.root

let intersect_cases () =
  let ok a b =
    match Constraint_ops.intersect_node (node_of a) (node_of b) with
    | Ok n -> n
    | Error c -> Alcotest.failf "unexpected conflict: %s" (Constraint_ops.conflict_to_string c)
  in
  let n = ok "pkg@1.0:2.0" "pkg@1.5:3.0" in
  Alcotest.(check bool) "version intersection" true
    (Vlist.mem (Version.of_string "1.7") n.Ast.versions
    && not (Vlist.mem (Version.of_string "2.5") n.Ast.versions));
  let n = ok "pkg+debug" "pkg=bgq%gcc" in
  Alcotest.(check (option bool)) "variants merge" (Some true)
    (Ast.Smap.find_opt "debug" n.Ast.variants);
  Alcotest.(check (option string)) "arch carried" (Some "bgq") n.Ast.arch;
  let n = ok "%gcc@4:" "%gcc@:5" in
  (match n.Ast.compiler with
  | Some c ->
      Alcotest.(check bool) "compiler versions intersect" true
        (Vlist.mem (Version.of_string "4.5") c.Ast.c_versions)
  | None -> Alcotest.fail "compiler expected");
  (* anonymous merges with named *)
  let n = ok "+debug" "pkg@1.0" in
  Alcotest.(check string) "name adopted" "pkg" n.Ast.name

let conflict_cases () =
  let conflict_on field a b =
    match Constraint_ops.intersect_node (node_of a) (node_of b) with
    | Ok _ -> Alcotest.failf "expected %s conflict for %s vs %s" field a b
    | Error c -> Alcotest.(check string) (a ^ " vs " ^ b) field c.Constraint_ops.field
  in
  conflict_on "version" "pkg@1.0" "pkg@2.0";
  conflict_on "compiler" "pkg%gcc" "pkg%intel";
  conflict_on "compiler" "pkg%gcc@4" "pkg%gcc@5";
  conflict_on "variant debug" "pkg+debug" "pkg~debug";
  conflict_on "architecture" "pkg=bgq" "pkg=linux";
  conflict_on "name" "a" "b"

let satisfies_cases () =
  let sat c k =
    Constraint_ops.node_satisfies ~candidate:(node_of c) ~constraint_:(node_of k)
  in
  (* pinned candidate against constraints *)
  Alcotest.(check bool) "version member" true (sat "p@1.2.3%gcc@4.9.2=bgq" "@1.2:");
  Alcotest.(check bool) "version non-member" false (sat "p@1.1%gcc@4.9.2" "@1.2:");
  Alcotest.(check bool) "prefix version" true (sat "p@1.2.3" "@1.2");
  Alcotest.(check bool) "compiler" true (sat "p%gcc@4.9.2" "%gcc");
  Alcotest.(check bool) "compiler version range" true (sat "p%gcc@4.9.2" "%gcc@4:");
  Alcotest.(check bool) "wrong compiler" false (sat "p%gcc@4.9.2" "%intel");
  Alcotest.(check bool) "unpinned compiler fails strictly" false (sat "p" "%gcc");
  Alcotest.(check bool) "variant match" true (sat "p+debug" "+debug");
  Alcotest.(check bool) "variant mismatch" false (sat "p~debug" "+debug");
  Alcotest.(check bool) "variant unset fails strictly" false (sat "p" "+debug");
  Alcotest.(check bool) "arch" true (sat "p=bgq" "=bgq");
  Alcotest.(check bool) "anonymous matches any name" true (sat "p@2.4" "@2.4")

(* intersection agrees with satisfaction: a pinned candidate satisfying
   both constraint nodes satisfies their intersection, and vice versa *)
let arb_constraint_node =
  let open QCheck.Gen in
  let gen =
    let* vs = oneofl [ ""; "@1:"; "@:2"; "@1.5"; "@1:3" ] in
    let* var = oneofl [ ""; "+debug"; "~debug"; "+mpi" ] in
    let* comp = oneofl [ ""; "%gcc"; "%gcc@4:"; "%intel" ] in
    let* arch = oneofl [ ""; "=bgq"; "=linux" ] in
    return ("p" ^ vs ^ var ^ comp ^ arch)
  in
  QCheck.make ~print:(fun s -> s) gen

let arb_pinned_candidate =
  let open QCheck.Gen in
  let gen =
    let* v = oneofl [ "1.0"; "1.5"; "2.0"; "3.5" ] in
    let* var = oneofl [ "+debug"; "~debug"; "+debug+mpi"; "~debug~mpi" ] in
    let* comp = oneofl [ "%gcc@4.9.2"; "%intel@15.0.1" ] in
    let* arch = oneofl [ "=bgq"; "=linux" ] in
    return ("p@" ^ v ^ var ^ comp ^ arch)
  in
  QCheck.make ~print:(fun s -> s) gen

let intersect_vs_satisfies =
  QCheck.Test.make ~count:500
    ~name:"pinned candidate satisfies (a ∩ b) iff it satisfies both"
    (QCheck.triple arb_pinned_candidate arb_constraint_node arb_constraint_node)
    (fun (cand, a, b) ->
      let candidate = node_of cand in
      let na = node_of a and nb = node_of b in
      let sat c = Constraint_ops.node_satisfies ~candidate ~constraint_:c in
      match Constraint_ops.intersect_node na nb with
      | Ok merged -> Bool.equal (sat merged) (sat na && sat nb)
      | Error _ ->
          (* unsatisfiable intersection: no pinned candidate can satisfy
             both sides at once *)
          not (sat na && sat nb))

(* --- concrete specs --- *)

let smap_of kvs =
  List.fold_left (fun m (k, v) -> Concrete.Smap.add k v m) Concrete.Smap.empty kvs

let cnode ?(compiler = ("gcc", "4.9.2")) ?(variants = []) ?(deps = [])
    ?(provided = []) name version =
  {
    Concrete.name;
    version = Version.of_string version;
    compiler = (fst compiler, Version.of_string (snd compiler));
    variants = smap_of variants;
    arch = "linux-x86_64";
    deps;
    provided =
      List.map (fun (v, body) -> (v, Vlist.of_string body)) provided;
  }

let sample () =
  match
    Concrete.make ~root:"app"
      [
        cnode "app" "1.0" ~deps:[ "libx"; "mpi-impl" ];
        cnode "libx" "2.0" ~deps:[ "libz" ];
        cnode "libz" "3.1";
        cnode "mpi-impl" "1.9" ~provided:[ ("mpi", ":2.2") ] ~deps:[ "libz" ];
      ]
  with
  | Ok c -> c
  | Error e -> Alcotest.failf "sample invalid: %a" Concrete.pp_validation_error e

let concrete_validation () =
  (match Concrete.make ~root:"app" [ cnode "app" "1.0" ~deps:[ "ghost" ] ] with
  | Error (Concrete.Missing_dep { dep; _ }) ->
      Alcotest.(check string) "missing dep" "ghost" dep
  | _ -> Alcotest.fail "expected missing dep");
  (match Concrete.make ~root:"ghost" [ cnode "app" "1.0" ] with
  | Error (Concrete.Missing_root _) -> ()
  | _ -> Alcotest.fail "expected missing root");
  match
    Concrete.make ~root:"a"
      [ cnode "a" "1" ~deps:[ "b" ]; cnode "b" "1" ~deps:[ "a" ] ]
  with
  | Error (Concrete.Cyclic _) -> ()
  | _ -> Alcotest.fail "expected cycle"

let concrete_queries () =
  let c = sample () in
  Alcotest.(check int) "node count" 4 (Concrete.node_count c);
  Alcotest.(check string) "root" "app" (Concrete.root c);
  let order = Concrete.topological_order c in
  Alcotest.(check bool) "libz before libx" true
    (let pos x =
       let rec go i = function
         | [] -> -1
         | y :: r -> if x = y then i else go (i + 1) r
       in
       go 0 order
     in
     pos "libz" < pos "libx" && pos "libx" < pos "app");
  let sub = Concrete.subspec c "libx" in
  Alcotest.(check int) "subspec size" 2 (Concrete.node_count sub);
  Alcotest.(check string) "subspec root" "libx" (Concrete.root sub)

let concrete_satisfies () =
  let c = sample () in
  let q s = Parser.parse_exn s in
  Alcotest.(check bool) "root name" true (Concrete.satisfies c (q "app"));
  Alcotest.(check bool) "root version" true (Concrete.satisfies c (q "app@1.0"));
  Alcotest.(check bool) "wrong version" false (Concrete.satisfies c (q "app@2.0"));
  Alcotest.(check bool) "dep constraint" true (Concrete.satisfies c (q "app ^libz@3.1"));
  Alcotest.(check bool) "dep wrong version" false
    (Concrete.satisfies c (q "app ^libz@4:"));
  (* virtual interface queries hit the provider's provided list *)
  Alcotest.(check bool) "virtual dep" true (Concrete.satisfies c (q "app ^mpi"));
  Alcotest.(check bool) "virtual versioned" true
    (Concrete.satisfies c (q "app ^mpi@2:"));
  Alcotest.(check bool) "virtual out of range" false
    (Concrete.satisfies c (q "app ^mpi@3:"));
  Alcotest.(check bool) "absent package" false
    (Concrete.satisfies c (q "app ^nothere"))

let concrete_hashing () =
  let c = sample () in
  let h = Concrete.root_hash c in
  Alcotest.(check int) "hash length" 8 (String.length h);
  (* same DAG -> same hash *)
  Alcotest.(check string) "deterministic" h (Concrete.root_hash (sample ()));
  (* shared sub-DAGs have equal hashes regardless of the enclosing spec
     (paper Fig. 9) *)
  let sub_in_c = Concrete.dag_hash c "libx" in
  let standalone = Concrete.subspec c "libx" in
  Alcotest.(check string) "sub-DAG hash stable" sub_in_c
    (Concrete.root_hash standalone);
  (* changing a leaf changes every hash up the chain but not siblings *)
  let changed =
    match
      Concrete.make ~root:"app"
        [
          cnode "app" "1.0" ~deps:[ "libx"; "mpi-impl" ];
          cnode "libx" "2.0" ~deps:[ "libz" ];
          cnode "libz" "3.2" (* bumped *);
          cnode "mpi-impl" "1.9" ~provided:[ ("mpi", ":2.2") ] ~deps:[ "libz" ];
        ]
    with
    | Ok c -> c
    | Error _ -> Alcotest.fail "invalid"
  in
  Alcotest.(check bool) "root hash changed" true
    (Concrete.root_hash changed <> h);
  Alcotest.(check bool) "libx hash changed" true
    (Concrete.dag_hash changed "libx" <> Concrete.dag_hash c "libx");
  (* variants and compilers feed the hash *)
  let with_variant =
    match
      Concrete.make ~root:"a" [ cnode "a" "1" ~variants:[ ("debug", true) ] ]
    with
    | Ok c -> c
    | Error _ -> Alcotest.fail "invalid"
  and without =
    match
      Concrete.make ~root:"a" [ cnode "a" "1" ~variants:[ ("debug", false) ] ]
    with
    | Ok c -> c
    | Error _ -> Alcotest.fail "invalid"
  in
  Alcotest.(check bool) "variant affects hash" true
    (Concrete.root_hash with_variant <> Concrete.root_hash without)

let concrete_rendering () =
  let c = sample () in
  let line = Concrete.to_string c in
  Alcotest.(check bool) "starts with root" true
    (String.length line > 3 && String.sub line 0 3 = "app");
  Alcotest.(check bool) "mentions deps" true
    (Astring.String.is_infix ~affix:"^libz@3.1" line);
  let tree = Concrete.tree_string c in
  Alcotest.(check bool) "tree shows compiler" true
    (Astring.String.is_infix ~affix:"%gcc@4.9.2" tree)

(* --- hash memo: every lookup agrees with a from-scratch recomputation --- *)

(* The identity string of §3.4.2, rebuilt here independently of the
   library's rendering: node parameters, provided virtuals, then the
   dependency sub-DAG hashes; the hash is the first 8 hex digits of its
   SHA-256. *)
let reference_hashes c =
  let memo = Hashtbl.create 16 in
  let rec hash name =
    match Hashtbl.find_opt memo name with
    | Some h -> h
    | None ->
        let n = Concrete.node_exn c name in
        let cname, cver = n.Concrete.compiler in
        let variants =
          Concrete.Smap.bindings n.Concrete.variants
          |> List.map (fun (v, on) -> (if on then "+" else "~") ^ v)
          |> String.concat ""
        in
        let params =
          Printf.sprintf "%s@%s%%%s@%s%s=%s" name
            (Version.to_string n.Concrete.version)
            cname (Version.to_string cver) variants n.Concrete.arch
        in
        let provided =
          List.map
            (fun (v, vl) -> v ^ "=" ^ Vlist.to_string vl)
            n.Concrete.provided
          |> String.concat ","
        in
        let identity =
          String.concat "|" (params :: provided :: List.map hash n.Concrete.deps)
        in
        let h = String.sub (Sha256.hex_digest identity) 0 8 in
        Hashtbl.replace memo name h;
        h
  in
  List.map (fun (n : Concrete.node) -> (n.Concrete.name, hash n.Concrete.name))
    (Concrete.nodes c)

let raises_invalid f =
  match f () with _ -> false | exception Invalid_argument _ -> true

(* Subspecs are hashed before the parent, so when [c] is fresh its shared
   memo is first forced through a subspec. *)
let hash_invariants c =
  let names =
    List.map (fun (n : Concrete.node) -> n.Concrete.name) (Concrete.nodes c)
  in
  let subs = List.map (fun n -> (n, Concrete.subspec c n)) names in
  let sub_roots = List.map (fun (n, s) -> (n, Concrete.root_hash s)) subs in
  let reference = reference_hashes c in
  let reloaded =
    match Concrete.of_json (Concrete.to_json c) with
    | Ok c2 -> c2
    | Error e -> failwith e
  in
  List.for_all
    (fun (n, h) ->
      Concrete.dag_hash c n = h
      && List.assoc n sub_roots = h
      && Concrete.dag_hash reloaded n = h)
    reference
  && List.for_all
       (fun (_, sub) ->
         List.for_all
           (fun m ->
             if Concrete.node sub m = None then
               raises_invalid (fun () -> Concrete.dag_hash sub m)
             else Concrete.dag_hash sub m = Concrete.dag_hash c m)
           names)
       subs
  && raises_invalid (fun () -> Concrete.dag_hash c "no-such-node")

let universe_ctx =
  lazy
    (Concretizer.make_ctx ~config:Universe.default_config
       ~compilers:Universe.compilers (Universe.repository ()))

let concretize_exn spec =
  match Concretizer.concretize_string (Lazy.force universe_ctx) spec with
  | Ok c -> c
  | Error e -> Alcotest.failf "%s: %s" spec e

let hash_prop_universe =
  QCheck.Test.make ~name:"hash memo = reference over the universe" ~count:60
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
      | Ok c -> hash_invariants c)

(* Random acyclic DAGs: node [i] may depend only on nodes [j > i], so
   "n0" reaches every node the generator connects to it. *)
let gen_dag =
  let open QCheck.Gen in
  let* size = int_range 1 7 in
  let node i =
    let* version = oneofl [ "1.0"; "2.3.1"; "0.8.13"; "20130729" ] in
    let* compiler = oneofl [ ("gcc", "4.9.2"); ("intel", "14.1") ] in
    let* debug = bool in
    let* mpi = bool in
    let* provided =
      oneofl [ []; [ ("mpi", ":2.2") ]; [ ("mpi", "3:"); ("blas", "1.0") ] ]
    in
    let+ deps =
      flatten_l
        (List.init (size - i - 1) (fun k ->
             let dep = Printf.sprintf "n%d" (i + k + 1) in
             map (fun b -> if b then Some dep else None) bool))
    in
    cnode ~compiler ~variants:[ ("debug", debug); ("mpi", mpi) ] ~provided
      ~deps:(List.filter_map Fun.id deps) (Printf.sprintf "n%d" i) version
  in
  flatten_l (List.init size node)

let hash_prop_generated =
  QCheck.Test.make ~name:"hash memo = reference on generated DAGs" ~count:200
    (QCheck.make
       ~print:(fun nodes ->
         String.concat " " (List.map Concrete.node_to_string nodes))
       gen_dag)
    (fun nodes ->
      match Concrete.make ~root:"n0" nodes with
      | Error _ -> false
      | Ok c -> hash_invariants c)

(* Today's hashes, pinned: the identity string must not drift, or every
   install prefix, index shard and lockfile would change with it. *)
let pinned_hashes () =
  Alcotest.(check string) "libelf" "fe7b6eb4"
    (Concrete.root_hash (concretize_exn "libelf"));
  let dwarf = concretize_exn "libdwarf" in
  Alcotest.(check string) "libdwarf" "d507abe5" (Concrete.root_hash dwarf);
  Alcotest.(check string) "libelf inside libdwarf" "fe7b6eb4"
    (Concrete.dag_hash dwarf "libelf")

(* The memo is invisible to [Concrete.equal]: a spec whose hashes were
   forced equals one built separately whose hashes were not. *)
let equal_ignores_memo () =
  let forced = sample () and fresh = sample () in
  ignore (Concrete.root_hash forced);
  Alcotest.(check bool) "forced = unforced" true (Concrete.equal forced fresh);
  Alcotest.(check bool) "unforced = forced" true (Concrete.equal fresh forced);
  let sub = Concrete.subspec forced "libx" in
  let standalone =
    match
      Concrete.make ~root:"libx"
        [ cnode "libx" "2.0" ~deps:[ "libz" ]; cnode "libz" "3.1" ]
    with
    | Ok c -> c
    | Error _ -> Alcotest.fail "invalid"
  in
  Alcotest.(check bool) "subspec of a forced spec = fresh spec" true
    (Concrete.equal sub standalone);
  Alcotest.(check string) "and hashes agree" (Concrete.root_hash standalone)
    (Concrete.root_hash sub)

let () =
  Alcotest.run "spec"
    [
      ("lexer", [ Alcotest.test_case "tokens" `Quick lexer_cases ]);
      ( "parser",
        [
          Alcotest.test_case "paper Table 2" `Quick table2;
          Alcotest.test_case "details" `Quick parser_details;
          Alcotest.test_case "errors" `Quick parser_errors;
          Alcotest.test_case "print/parse round-trip" `Quick print_parse_roundtrip;
          Alcotest.test_case "round-trip, every grammar form" `Quick
            roundtrip_every_form;
          Alcotest.test_case "error positions" `Quick lexer_error_positions;
          Alcotest.test_case "compiler version lists" `Quick
            compiler_version_lists;
          Alcotest.test_case "universe names parse" `Quick universe_names_parse;
          QCheck_alcotest.to_alcotest roundtrip_prop;
        ] );
      ( "constraints",
        [
          Alcotest.test_case "intersection" `Quick intersect_cases;
          Alcotest.test_case "conflicts" `Quick conflict_cases;
          Alcotest.test_case "satisfaction" `Quick satisfies_cases;
          QCheck_alcotest.to_alcotest intersect_vs_satisfies;
        ] );
      ( "concrete",
        [
          Alcotest.test_case "validation" `Quick concrete_validation;
          Alcotest.test_case "queries" `Quick concrete_queries;
          Alcotest.test_case "satisfies" `Quick concrete_satisfies;
          Alcotest.test_case "hashing" `Quick concrete_hashing;
          Alcotest.test_case "rendering" `Quick concrete_rendering;
          Alcotest.test_case "pinned hashes" `Quick pinned_hashes;
          Alcotest.test_case "equal ignores the hash memo" `Quick
            equal_ignores_memo;
          QCheck_alcotest.to_alcotest hash_prop_universe;
          QCheck_alcotest.to_alcotest hash_prop_generated;
        ] );
    ]
