(* Hash substrate: SHA-256 against NIST FIPS 180-4 vectors, the stdlib
   MD5 that archive checksums and install manifests use against the
   RFC 1321 test suite, hex round-trips. *)

open Ospack_hash

let check_sha msg input expected =
  Alcotest.(check string) msg expected (Sha256.hex_digest input)

let sha_nist_vectors () =
  check_sha "empty" ""
    "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855";
  check_sha "abc" "abc"
    "ba7816bf8f01cfea414140de5dae2223b00361a396177a9cb410ff61f20015ad";
  check_sha "two-block" "abcdbcdecdefdefgefghfghighijhijkijkljklmklmnlmnomnopnopq"
    "248d6a61d20638b8e5c026930c3e6039a33ce45964ff2167f6ecedd419db06c1";
  check_sha "448-bit boundary" (String.make 56 'a')
    (Sha256.hex_digest (String.make 56 'a'));
  check_sha "million a" (String.make 1_000_000 'a')
    "cdc76e5c9914fb9281a1c7e284d73e67f1809a48a497200e046d39ccc7112cd0"

let sha_streaming () =
  (* feeding in arbitrary chunk sizes must equal one-shot digest *)
  let input = String.init 10_000 (fun i -> Char.chr (i mod 256)) in
  let expected = Sha256.hex_digest input in
  List.iter
    (fun chunk ->
      let ctx = Sha256.init () in
      let rec feed i =
        if i < String.length input then begin
          let n = min chunk (String.length input - i) in
          Sha256.feed ctx (String.sub input i n);
          feed (i + n)
        end
      in
      feed 0;
      Alcotest.(check string)
        (Printf.sprintf "chunk size %d" chunk)
        expected
        (Hex.encode (Sha256.finalize ctx)))
    [ 1; 3; 63; 64; 65; 1000 ]

let md5_rfc_vectors () =
  let check msg input expected =
    Alcotest.(check string) msg expected
      (Digest.to_hex (Digest.string input))
  in
  check "empty" "" "d41d8cd98f00b204e9800998ecf8427e";
  check "a" "a" "0cc175b9c0f1b6a831c399e269772661";
  check "abc" "abc" "900150983cd24fb0d6963f7d28e17f72";
  check "message digest" "message digest" "f96b697d7cb7938d525a2f31aaf161d0";
  check "alphabet" "abcdefghijklmnopqrstuvwxyz"
    "c3fcd3d76192e4007dfb496cca67e13b";
  check "digits"
    "12345678901234567890123456789012345678901234567890123456789012345678901234567890"
    "57edf4a22be3c955ac49da2e2107b67a"

let hex_roundtrip =
  QCheck.Test.make ~name:"hex decode inverts encode" ~count:200
    QCheck.(string_of_size (Gen.int_bound 64))
    (fun s -> Hex.decode (Hex.encode s) = Some s)

let hex_rejects () =
  Alcotest.(check (option string)) "odd length" None (Hex.decode "abc");
  Alcotest.(check (option string)) "non-hex" None (Hex.decode "zz");
  Alcotest.(check (option string)) "uppercase ok" (Some "\xab") (Hex.decode "AB")

let sha_distinct =
  QCheck.Test.make ~name:"sha256 distinguishes distinct short strings"
    ~count:200
    QCheck.(pair (string_of_size (Gen.int_bound 40)) (string_of_size (Gen.int_bound 40)))
    (fun (a, b) -> a = b || Sha256.digest a <> Sha256.digest b)

let () =
  Alcotest.run "hash"
    [
      ( "sha256",
        [
          Alcotest.test_case "NIST vectors" `Quick sha_nist_vectors;
          Alcotest.test_case "streaming equals one-shot" `Quick sha_streaming;
          QCheck_alcotest.to_alcotest sha_distinct;
        ] );
      ( "md5",
        [
          Alcotest.test_case "RFC 1321 vectors" `Quick md5_rfc_vectors;
        ] );
      ( "hex",
        [
          Alcotest.test_case "malformed inputs" `Quick hex_rejects;
          QCheck_alcotest.to_alcotest hex_roundtrip;
        ] );
    ]
