(** Prime protocol messages with canonical binary encodings for signing.

    Every protocol message is authenticated by its sender; client updates
    carry their own end-to-end client signature (a replica cannot
    fabricate supervisory commands on behalf of an HMI). Replicas sign
    each message body directly. Canonical bodies use the binary
    {!Wire} codec — byte-stable across deployments by construction. *)

module Update : sig
  type t = {
    client : string; (* signing identity of the submitting client *)
    client_seq : int;
    op : string; (* application-opaque serialized operation *)
    signature : Crypto.Signature.t;
  }

  val create : keypair:Crypto.Signature.keypair -> client_seq:int -> op:string -> t

  val encode : t -> string

  (** Append the canonical body to a buffer (for enclosing encodings). *)
  val write : Buffer.t -> t -> unit

  val verify : Crypto.Signature.keystore -> t -> bool

  val digest : t -> Crypto.Sha256.digest

  (** Approximate wire size in bytes. *)
  val size : t -> int

  (** Identity key: (client, client_seq). *)
  val key : t -> string * int

  val pp : Format.formatter -> t -> unit
end

(** A replica's authenticated cumulative preorder vector. *)
type summary = { sum_rep : int; aru : int array; sum_sig : Crypto.Signature.t }

val encode_summary_body : sum_rep:int -> aru:int array -> string

val encode_summary : summary -> string

val verify_summary : Crypto.Signature.keystore -> summary -> bool

(** The proof matrix carried by a pre-prepare: freshest summary per
    replica. Matrix encodings cover only the summary bodies (each
    summary's signature is verified separately), so the digest depends
    only on the proposed vectors. *)
type matrix = summary option array

val matrix_digest : view:int -> pp_seq:int -> matrix -> Crypto.Sha256.digest

(** Prepared certificate carried in view-change reports. *)
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
      vc_view : int;
      vc_max_ordered : int;
      vc_prepared : prepared_cert list;
      vc_sig : Crypto.Signature.t;
    }
  | Origin_reset of { or_rep : int; or_new_start : int; or_sig : Crypto.Signature.t }
  | Recon_request of { rr_rep : int; rr_origin : int; rr_po_seq : int }
  | Recon_reply of { rp_rep : int; rp_origin : int; rp_po_seq : int; rp_update : Update.t }
  | Order_cert of {
      oc_rep : int;
      oc_seq : int;
      oc_view : int;
      oc_matrix : matrix;
      oc_pp_sig : Crypto.Signature.t;
      oc_commits : (int * Crypto.Signature.t) list;
    }
      (** Self-certifying commit certificate: the leader's pre-prepare
          authenticator plus a quorum of commit authenticators over the
          derived digest. Lets a replica that already ordered (and
          possibly executed) an instance prove that fact to a lagging
          peer, independent of views and of the relayer's honesty. *)
  | Catchup_request of { cu_rep : int; cu_from : int; cu_next_pp : int }
  | Catchup_reply of {
      cr_rep : int;
      cr_entries : (int * Update.t) list;
      cr_upto : int;
      cr_behind_log : bool;
      cr_next_exec_pp : int;
      cr_cursor : int array;
      cr_sig : Crypto.Signature.t;
    }
  | Client_reply of {
      crep_rep : int;
      crep_client : string;
      crep_client_seq : int;
      crep_exec_seq : int;
      crep_sig : Crypto.Signature.t;
    }

(** Prime messages as network payloads (carried inside Spines). *)
type Netbase.Packet.payload += Prime_msg of t

(** Signing identity of replica [i] (interned). *)
val replica_identity : int -> string

(** Canonical byte strings covered by each message's authenticator. *)

val encode_po_request : origin:int -> po_seq:int -> Update.t -> string

val encode_po_ack : acker:int -> origin:int -> po_seq:int -> digest:Crypto.Sha256.digest -> string

val encode_pre_prepare : view:int -> pp_seq:int -> matrix -> string

val encode_prepare : rep:int -> view:int -> pp_seq:int -> digest:Crypto.Sha256.digest -> string

val encode_commit : rep:int -> view:int -> pp_seq:int -> digest:Crypto.Sha256.digest -> string

val encode_suspect : rep:int -> view:int -> string

(** Signed by a recovering origin: its preorder sequence restarts at
    [new_start]; uncompleted slots below are void. *)
val encode_origin_reset : rep:int -> new_start:int -> string

val encode_vc_report :
  rep:int -> view:int -> max_ordered:int -> prepared:prepared_cert list -> string

(** What a catchup reply says, the same from every replica serving the
    same history; [entries] are (exec_seq, update) pairs. *)
val encode_catchup_content :
  upto:int ->
  behind_log:bool ->
  next_exec_pp:int ->
  cursor:int array ->
  entries:(int * Update.t) list ->
  string

(** The signed body of replica [rep]'s catchup reply with that content. *)
val encode_catchup_reply : rep:int -> string -> string

val encode_client_reply : rep:int -> client:string -> client_seq:int -> exec_seq:int -> string

(** Approximate wire size in bytes. *)
val size : t -> int

val describe : t -> string
