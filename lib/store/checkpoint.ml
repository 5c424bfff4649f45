(* Authenticated replica checkpoints.

   A checkpoint snapshots everything [Prime.Replica.install_app_checkpoint]
   needs — execution point, ordering cursors, client dedup keys — plus the
   SCADA master's serialized application state. The fields are hashed into
   a [Crypto.Merkle] tree whose root is the checkpoint's identity: peers
   vote transfer acceptance by root (f + 1 matching roots guarantee a
   correct replica produced the content), and each replica signs the
   domain-separated root so a stored checkpoint is tamper-evident on disk
   too.

   The application state enters the tree as [ck_app_root] — the state's
   own incremental Merkle root, an O(1) read off the live [Scada.State] —
   rather than by chunk-hashing the serialized blob, so taking a
   checkpoint costs O(1) hashing in the state size. The blob still
   travels in [ck_app_state] for installation, and install paths bind it
   to [ck_app_root] via [Scada.State.root_of_blob] before adopting it;
   a flipped blob byte is caught there instead of at [verify]. *)

type t = {
  ck_replica : int;
  ck_exec_seq : int;
  ck_next_exec_pp : int;
  ck_cursor : int array;
  ck_client_seqs : (string * int) list; (* sorted canonical *)
  ck_app_state : string;
  ck_app_root : Crypto.Sha256.digest;
  ck_root : Crypto.Sha256.digest;
  ck_auth : Crypto.Signature.t;
}

let sort_client_seqs seqs =
  List.sort_uniq
    (fun (c1, s1) (c2, s2) ->
      match String.compare c1 c2 with 0 -> Int.compare s1 s2 | c -> c)
    seqs

(* Merkle leaves: meta, cursor, client keys, app-state root. *)
let leaves ~exec_seq ~next_exec_pp ~cursor ~client_seqs ~app_root =
  let meta =
    Wire.encode ~size_hint:24 (fun b ->
        Buffer.add_string b "ck-meta:";
        Wire.w_int b exec_seq;
        Wire.w_int b next_exec_pp)
  in
  let cursor_leaf = Wire.encode ~size_hint:64 (fun b -> Wire.w_int_array b cursor) in
  let clients_leaf =
    Wire.encode (fun b ->
        Wire.w_u32 b (List.length client_seqs);
        List.iter
          (fun (c, s) ->
            Wire.w_str b c;
            Wire.w_int b s)
          client_seqs)
  in
  let app_leaf = Wire.encode ~size_hint:40 (fun b -> Wire.w_digest b app_root) in
  [ meta; cursor_leaf; clients_leaf; app_leaf ]

let root_of ~exec_seq ~next_exec_pp ~cursor ~client_seqs ~app_root =
  Crypto.Merkle.root (leaves ~exec_seq ~next_exec_pp ~cursor ~client_seqs ~app_root)

(* Domain separation: the signature can never be confused with one over a
   protocol message. *)
let root_binding root = "store-checkpoint:" ^ root

let make ~keypair ~replica ~next_exec_pp ~exec_seq ~cursor ~client_seqs ~app_state ~app_root =
  let client_seqs = sort_client_seqs client_seqs in
  let root = root_of ~exec_seq ~next_exec_pp ~cursor ~client_seqs ~app_root in
  {
    ck_replica = replica;
    ck_exec_seq = exec_seq;
    ck_next_exec_pp = next_exec_pp;
    ck_cursor = cursor;
    ck_client_seqs = client_seqs;
    ck_app_state = app_state;
    ck_app_root = app_root;
    ck_root = root;
    ck_auth = Crypto.Signature.sign keypair (root_binding root);
  }

(* Root/signature verification: the root must re-derive from the covered
   content (tamper evidence) and the signature must bind it to [signer].
   [ck_app_state] is NOT covered here — install paths must bind the blob
   to [ck_app_root] (see [Scada.Durable]). *)
let verify ~keystore ~signer t =
  String.equal t.ck_root
    (root_of ~exec_seq:t.ck_exec_seq ~next_exec_pp:t.ck_next_exec_pp ~cursor:t.ck_cursor
       ~client_seqs:t.ck_client_seqs ~app_root:t.ck_app_root)
  && Crypto.Signature.verify keystore ~signer (root_binding t.ck_root) t.ck_auth

let encode t =
  Wire.encode ~size_hint:(String.length t.ck_app_state + 256) (fun b ->
      Wire.w_int b t.ck_replica;
      Wire.w_int b t.ck_exec_seq;
      Wire.w_int b t.ck_next_exec_pp;
      Wire.w_int_array b t.ck_cursor;
      Wire.w_u32 b (List.length t.ck_client_seqs);
      List.iter
        (fun (c, s) ->
          Wire.w_str b c;
          Wire.w_int b s)
        t.ck_client_seqs;
      Wire.w_str b t.ck_app_state;
      Wire.w_digest b t.ck_app_root;
      Wire.w_digest b t.ck_root;
      Wire.w_str b (Crypto.Signature.signer t.ck_auth);
      Wire.w_str b (Crypto.Signature.tag t.ck_auth))

let decode s =
  match
    let r = Wire.reader s in
    let ck_replica = Wire.r_int r in
    let ck_exec_seq = Wire.r_int r in
    let ck_next_exec_pp = Wire.r_int r in
    let ck_cursor = Wire.r_int_array r in
    let n_clients = Wire.r_u32 r in
    (* Read pairs sequentially (List.init's application order is
       unspecified). *)
    let acc = ref [] in
    for _ = 1 to n_clients do
      let c = Wire.r_str r in
      let s = Wire.r_int r in
      acc := (c, s) :: !acc
    done;
    let ck_client_seqs = List.rev !acc in
    let ck_app_state = Wire.r_str r in
    let ck_app_root = Wire.r_digest r in
    let ck_root = Wire.r_digest r in
    let signer = Wire.r_str r in
    let tag = Wire.r_str r in
    (* Trailing bytes would decode to a checkpoint that re-encodes to
       different bytes: reject them, as [Scada.State] and [Spines.Frame]
       do. *)
    if not (Wire.at_end r) then raise Wire.Truncated;
    {
      ck_replica;
      ck_exec_seq;
      ck_next_exec_pp;
      ck_cursor;
      ck_client_seqs;
      ck_app_state;
      ck_app_root;
      ck_root;
      ck_auth = Crypto.Signature.of_tag ~signer tag;
    }
  with
  | t -> Some t
  | exception Wire.Truncated -> None
  | exception Invalid_argument _ -> None

let size t = String.length (encode t)
