(* Prime protocol messages with canonical binary encodings for signing.

   Every protocol message is authenticated by its sender and verified on
   receipt; client updates carry their own client signature end-to-end (a
   replica cannot fabricate supervisory commands on behalf of an HMI).
   Every replica-to-replica message carries its sender's direct
   signature over the message body.

   Canonical bodies are built with the binary [Wire] codec: fixed-width
   big-endian integers and raw 32-byte digests, with a leading tag byte
   per body kind for domain separation. The previous sprintf/hex
   encodings cost a decimal render per field and doubled every digest;
   these bodies are both smaller and allocation-cheaper, and byte
   stability across deployments is by construction (no formatting
   involved). *)

(* Leading tag byte of each signed body kind. *)
let tag_update = 0x01

let tag_summary = 0x02

let tag_pp_digest = 0x03

let tag_po_request = 0x04

let tag_po_ack = 0x05

let tag_pre_prepare = 0x06

let tag_prepare = 0x07

let tag_commit = 0x08

let tag_suspect = 0x09

let tag_origin_reset = 0x0A

let tag_vc_report = 0x0B

let tag_client_reply = 0x0C

let tag_catchup_reply = 0x0E

(* 0x0D is reserved for Order_cert, which carries no signed body of its
   own: a commit certificate is authenticated by its constituents (the
   leader's pre-prepare authenticator plus a quorum of commit
   authenticators, each already domain-separated by its own tag). *)

module Update = struct
  type t = {
    client : string; (* signing identity of the submitting client *)
    client_seq : int;
    op : string; (* application-opaque serialized operation *)
    signature : Crypto.Signature.t;
  }

  let write_body b ~client ~client_seq ~op =
    Wire.w_u8 b tag_update;
    Wire.w_str b client;
    Wire.w_int b client_seq;
    Wire.w_str b op

  let encode_body ~client ~client_seq ~op =
    Wire.encode ~size_hint:(32 + String.length client + String.length op) (fun b ->
        write_body b ~client ~client_seq ~op)

  let create ~keypair ~client_seq ~op =
    let client = Crypto.Signature.identity keypair in
    {
      client;
      client_seq;
      op;
      signature = Crypto.Signature.sign keypair (encode_body ~client ~client_seq ~op);
    }

  let encode u = encode_body ~client:u.client ~client_seq:u.client_seq ~op:u.op

  let write b u = write_body b ~client:u.client ~client_seq:u.client_seq ~op:u.op

  let verify ks u = Crypto.Signature.verify ks ~signer:u.client (encode u) u.signature

  let digest u = Crypto.Sha256.digest (encode u)

  let size u = 80 + String.length u.op + Crypto.Signature.size_bytes

  let key u = (u.client, u.client_seq)

  let pp ppf u = Fmt.pf ppf "%s#%d" u.client u.client_seq
end

(* A replica's cumulative preorder vector: aru.(i) is the highest
   sequence s such that all of origin i's preorder slots 1..s hold
   certified updates at this replica. *)
type summary = { sum_rep : int; aru : int array; sum_sig : Crypto.Signature.t }

let write_summary_body b ~sum_rep ~aru =
  Wire.w_u8 b tag_summary;
  Wire.w_int b sum_rep;
  Wire.w_int_array b aru

let encode_summary_body ~sum_rep ~aru =
  Wire.encode ~size_hint:(16 + (8 * Array.length aru)) (fun b ->
      write_summary_body b ~sum_rep ~aru)

let encode_summary s = encode_summary_body ~sum_rep:s.sum_rep ~aru:s.aru

(* Replica signing identities are interned: rendering "replica-%d" per
   verification was measurable on the hot path. *)
let replica_identity =
  let memo = Hashtbl.create 16 in
  fun rep ->
    match Hashtbl.find_opt memo rep with
    | Some id -> id
    | None ->
        let id = Printf.sprintf "replica-%d" rep in
        Hashtbl.replace memo rep id;
        id

let verify_summary ks s =
  Crypto.Signature.verify ks ~signer:(replica_identity s.sum_rep) (encode_summary s) s.sum_sig

(* The proof matrix carried by a pre-prepare: the freshest summary the
   leader holds from each replica (None until one is received). Only the
   summary *bodies* enter the matrix encoding — each summary's own
   signature is verified separately — so the matrix digest depends only
   on the vectors the leader proposes. *)
type matrix = summary option array

let write_matrix b (m : matrix) =
  Wire.w_u32 b (Array.length m);
  Array.iter
    (function
      | None -> Wire.w_bool b false
      | Some s ->
          Wire.w_bool b true;
          write_summary_body b ~sum_rep:s.sum_rep ~aru:s.aru)
    m

let matrix_digest ~view ~pp_seq m =
  let ctx = Crypto.Sha256.init () in
  let b = Buffer.create (32 + (Array.length m * 96)) in
  Wire.w_u8 b tag_pp_digest;
  Wire.w_int b view;
  Wire.w_int b pp_seq;
  write_matrix b m;
  Crypto.Sha256.feed_bytes ctx (Buffer.to_bytes b);
  Crypto.Sha256.finalize ctx

(* A prepared certificate carried in view-change reports, enough for the
   new leader to re-propose the same pre-prepare content. *)
type prepared_cert = { pc_seq : int; pc_view : int; pc_matrix : matrix }

type t =
  | Update_msg of Update.t
  | Po_request of { origin : int; po_seq : int; update : Update.t; po_sig : Crypto.Signature.t }
  | Po_ack of {
      acker : int;
      ack_origin : int;
      ack_po_seq : int;
      ack_digest : Crypto.Sha256.digest;
      ack_sig : Crypto.Signature.t;
    }
  | Po_summary of summary
  | Pre_prepare of { pp_view : int; pp_seq : int; pp_matrix : matrix; pp_sig : Crypto.Signature.t }
  | Prepare of {
      prep_rep : int;
      prep_view : int;
      prep_seq : int;
      prep_digest : Crypto.Sha256.digest;
      prep_sig : Crypto.Signature.t;
    }
  | Commit of {
      com_rep : int;
      com_view : int;
      com_seq : int;
      com_digest : Crypto.Sha256.digest;
      com_sig : Crypto.Signature.t;
    }
  | Suspect_leader of { sus_rep : int; sus_view : int; sus_sig : Crypto.Signature.t }
  | Vc_report of {
      vc_rep : int;
      vc_view : int; (* the view being installed *)
      vc_max_ordered : int;
      vc_prepared : prepared_cert list;
      vc_sig : Crypto.Signature.t;
    }
  | Origin_reset of { or_rep : int; or_new_start : int; or_sig : Crypto.Signature.t }
  | Recon_request of { rr_rep : int; rr_origin : int; rr_po_seq : int }
  | Recon_reply of { rp_rep : int; rp_origin : int; rp_po_seq : int; rp_update : Update.t }
  | Order_cert of {
      oc_rep : int; (* relaying replica (untrusted; the cert is self-certifying) *)
      oc_seq : int;
      oc_view : int;
      oc_matrix : matrix;
      oc_pp_sig : Crypto.Signature.t; (* leader's pre-prepare authenticator *)
      oc_commits : (int * Crypto.Signature.t) list; (* quorum of commit authenticators *)
    }
  | Catchup_request of {
      cu_rep : int;
      cu_from : int; (* next exec seq wanted *)
      cu_next_pp : int; (* requester's ordering cursor: serve commit certs from here *)
    }
  | Catchup_reply of {
      cr_rep : int;
      cr_entries : (int * Update.t) list; (* exec_seq, update *)
      cr_upto : int; (* responder's max exec seq *)
      cr_behind_log : bool; (* requested range no longer in the log *)
      cr_next_exec_pp : int; (* responder's ordering cursor ... *)
      cr_cursor : int array; (* ... and per-origin execution cursor *)
      cr_sig : Crypto.Signature.t;
    }
  | Client_reply of {
      crep_rep : int;
      crep_client : string;
      crep_client_seq : int;
      crep_exec_seq : int;
      crep_sig : Crypto.Signature.t;
    }

type Netbase.Packet.payload += Prime_msg of t

(* Canonical byte strings covered by each message's authenticator. *)
let encode_po_request ~origin ~po_seq update =
  Wire.encode ~size_hint:(64 + String.length update.Update.op) (fun b ->
      Wire.w_u8 b tag_po_request;
      Wire.w_int b origin;
      Wire.w_int b po_seq;
      Update.write b update)

let encode_po_ack ~acker ~origin ~po_seq ~digest =
  Wire.encode ~size_hint:64 (fun b ->
      Wire.w_u8 b tag_po_ack;
      Wire.w_int b acker;
      Wire.w_int b origin;
      Wire.w_int b po_seq;
      Wire.w_digest b digest)

let encode_pre_prepare ~view ~pp_seq matrix =
  Wire.encode ~size_hint:(32 + (Array.length matrix * 96)) (fun b ->
      Wire.w_u8 b tag_pre_prepare;
      Wire.w_int b view;
      Wire.w_int b pp_seq;
      write_matrix b matrix)

let encode_order_vote tag ~rep ~view ~pp_seq ~digest =
  Wire.encode ~size_hint:64 (fun b ->
      Wire.w_u8 b tag;
      Wire.w_int b rep;
      Wire.w_int b view;
      Wire.w_int b pp_seq;
      Wire.w_digest b digest)

let encode_prepare ~rep ~view ~pp_seq ~digest =
  encode_order_vote tag_prepare ~rep ~view ~pp_seq ~digest

let encode_commit ~rep ~view ~pp_seq ~digest =
  encode_order_vote tag_commit ~rep ~view ~pp_seq ~digest

let encode_suspect ~rep ~view =
  Wire.encode ~size_hint:24 (fun b ->
      Wire.w_u8 b tag_suspect;
      Wire.w_int b rep;
      Wire.w_int b view)

(* Signed by the recovering origin itself: "my preorder sequence restarts
   at new_start; everything below that I never completed is void". *)
let encode_origin_reset ~rep ~new_start =
  Wire.encode ~size_hint:24 (fun b ->
      Wire.w_u8 b tag_origin_reset;
      Wire.w_int b rep;
      Wire.w_int b new_start)

let write_prepared_cert b c =
  Wire.w_int b c.pc_seq;
  Wire.w_int b c.pc_view;
  write_matrix b c.pc_matrix

let encode_vc_report ~rep ~view ~max_ordered ~prepared =
  Wire.encode ~size_hint:(48 + (List.length prepared * 128)) (fun b ->
      Wire.w_u8 b tag_vc_report;
      Wire.w_int b rep;
      Wire.w_int b view;
      Wire.w_int b max_ordered;
      Wire.w_u32 b (List.length prepared);
      List.iter (write_prepared_cert b) prepared)

(* What a catchup reply says, without who says it: replicas serving the
   same history produce the same content, which is what a laggard's
   votes match on. The signed body prefixes the sender. *)
let encode_catchup_content ~upto ~behind_log ~next_exec_pp ~cursor ~entries =
  Wire.encode ~size_hint:256 (fun b ->
      Wire.w_int b upto;
      Wire.w_bool b behind_log;
      Wire.w_int b next_exec_pp;
      Wire.w_int_array b cursor;
      Wire.w_u32 b (List.length entries);
      List.iter
        (fun (exec_seq, u) ->
          Wire.w_int b exec_seq;
          Update.write b u)
        entries)

let encode_catchup_reply ~rep content =
  Wire.encode ~size_hint:(16 + String.length content) (fun b ->
      Wire.w_u8 b tag_catchup_reply;
      Wire.w_int b rep;
      Buffer.add_string b content)

let encode_client_reply ~rep ~client ~client_seq ~exec_seq =
  Wire.encode ~size_hint:(48 + String.length client) (fun b ->
      Wire.w_u8 b tag_client_reply;
      Wire.w_int b rep;
      Wire.w_str b client;
      Wire.w_int b client_seq;
      Wire.w_int b exec_seq)

(* Approximate wire sizes (bytes) for traffic modelling. *)
let sig_bytes = Crypto.Signature.size_bytes

let summary_size s = 24 + (8 * Array.length s.aru) + sig_bytes

let matrix_size m =
  Array.fold_left
    (fun acc entry -> acc + match entry with None -> 1 | Some s -> 1 + summary_size s)
    4 m

let size = function
  | Update_msg u -> Update.size u
  | Po_request { update; _ } -> Update.size update + 48 + sig_bytes
  | Po_ack _ | Prepare _ | Commit _ | Client_reply _ -> 80 + sig_bytes
  | Po_summary s -> 16 + summary_size s
  | Pre_prepare { pp_matrix; _ } -> 48 + matrix_size pp_matrix + sig_bytes
  | Suspect_leader _ | Origin_reset _ -> 48 + sig_bytes
  | Vc_report { vc_prepared; _ } ->
      64 + sig_bytes
      + List.fold_left (fun acc c -> acc + 16 + matrix_size c.pc_matrix) 0 vc_prepared
  | Recon_request _ -> 48
  | Recon_reply { rp_update; _ } -> 48 + Update.size rp_update
  | Order_cert { oc_matrix; oc_commits; _ } ->
      48 + matrix_size oc_matrix + sig_bytes + (List.length oc_commits * (16 + sig_bytes))
  | Catchup_request _ -> 48
  | Catchup_reply { cr_entries; cr_cursor; _ } ->
      48 + (8 * Array.length cr_cursor) + sig_bytes
      + List.fold_left (fun acc (_, u) -> acc + 16 + Update.size u) 0 cr_entries

let describe = function
  | Update_msg u -> Printf.sprintf "update %s#%d" u.Update.client u.Update.client_seq
  | Po_request { origin; po_seq; _ } -> Printf.sprintf "po-request (%d,%d)" origin po_seq
  | Po_ack { acker; ack_origin; ack_po_seq; _ } ->
      Printf.sprintf "po-ack by %d for (%d,%d)" acker ack_origin ack_po_seq
  | Po_summary s -> Printf.sprintf "po-summary from %d" s.sum_rep
  | Pre_prepare { pp_view; pp_seq; _ } -> Printf.sprintf "pre-prepare v%d #%d" pp_view pp_seq
  | Prepare { prep_rep; prep_seq; _ } -> Printf.sprintf "prepare by %d #%d" prep_rep prep_seq
  | Commit { com_rep; com_seq; _ } -> Printf.sprintf "commit by %d #%d" com_rep com_seq
  | Suspect_leader { sus_rep; sus_view; _ } ->
      Printf.sprintf "suspect v%d by %d" sus_view sus_rep
  | Vc_report { vc_rep; vc_view; _ } -> Printf.sprintf "vc-report v%d by %d" vc_view vc_rep
  | Origin_reset { or_rep; or_new_start; _ } ->
      Printf.sprintf "origin-reset %d -> %d" or_rep or_new_start
  | Recon_request { rr_rep; rr_origin; rr_po_seq } ->
      Printf.sprintf "recon-request by %d for (%d,%d)" rr_rep rr_origin rr_po_seq
  | Recon_reply { rp_origin; rp_po_seq; _ } ->
      Printf.sprintf "recon-reply for (%d,%d)" rp_origin rp_po_seq
  | Order_cert { oc_rep; oc_seq; oc_view; _ } ->
      Printf.sprintf "order-cert v%d #%d via %d" oc_view oc_seq oc_rep
  | Catchup_request { cu_rep; cu_from; _ } ->
      Printf.sprintf "catchup-request by %d from %d" cu_rep cu_from
  | Catchup_reply { cr_upto; _ } -> Printf.sprintf "catchup-reply upto %d" cr_upto
  | Client_reply { crep_client; crep_client_seq; _ } ->
      Printf.sprintf "client-reply %s#%d" crep_client crep_client_seq
