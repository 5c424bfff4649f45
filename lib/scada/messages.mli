(** SCADA-level messages beside the Prime stream: replica-signed breaker
    commands and display pushes (enforced f + 1 thresholds downstream),
    and the master-to-master application state transfer, whose one reply
    is a checkpoint. *)

type t =
  | Breaker_command of {
      bc_rep : int;
      bc_exec_seq : int;
      bc_breaker : string;
      bc_close : bool;
      bc_sig : Crypto.Signature.t;
    }
  | Hmi_batch of {
      hb_rep : int;
      hb_exec_seq : int;
      hb_changes : (string * bool) list;
      hb_sig : Crypto.Signature.t;
    }
      (** One display push per applied status or batch op that changed
          the state: every status change the op produced, signed as a
          unit. The HMI votes the whole change set through its f + 1 gate
          once instead of once per breaker. *)
  | App_state_request of { asr_rep : int }
  | Checkpoint_reply of {
      ckr_rep : int;
      ckr_ck : Store.Checkpoint.t;
      ckr_sig : Crypto.Signature.t;
    }
      (** The state-transfer reply: the sender's latest checkpoint, or
          one built on demand when it has none. Vote by [ck_root], accept
          once f + 1 distinct replicas vouch for the same root.
          [ckr_sig] covers [encode_checkpoint_reply] so the sender's vote
          is authenticated independently of the checkpoint's producer. *)

type Netbase.Packet.payload += Scada_msg of t

(** Canonical byte strings covered by signatures. *)

val encode_breaker_command : rep:int -> exec_seq:int -> breaker:string -> close:bool -> string

val encode_hmi_batch : rep:int -> exec_seq:int -> changes:(string * bool) list -> string

val encode_checkpoint_reply : rep:int -> root:Crypto.Sha256.digest -> string

(** Approximate wire size in bytes. *)
val size : t -> int

val describe : t -> string
