(* SCADA-level protocol messages exchanged beside the Prime stream.

   - [Breaker_command]: a replica instructs a proxy to actuate a breaker.
     The proxy only obeys after f + 1 distinct replicas send the same
     command for the same execution point — a compromised master alone
     cannot move a breaker.
   - [Hmi_batch]: a replica pushes the status changes one applied op
     produced (one change for a [Status] op, many for a [Batch]); the
     HMI likewise requires f + 1 replicas pushing the same change set at
     the same execution point before repainting.
   - [App_state_request]/[Checkpoint_reply]: the application-level state
     transfer between SCADA masters (Section III-A). Every reply is an
     authenticated [Store.Checkpoint.t]; the requester votes by the
     checkpoint's Merkle root and accepts once f + 1 *distinct* replicas
     vouch for the same root. The checkpoint's own signature pins it to
     the replica that produced it; [ckr_sig] separately binds the sending
     replica to the root it vouches for, so votes can be deduplicated by
     authenticated sender. *)

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
  | App_state_request of { asr_rep : int }
  | Checkpoint_reply of {
      ckr_rep : int;
      ckr_ck : Store.Checkpoint.t;
      ckr_sig : Crypto.Signature.t; (* sender's vote: covers (ckr_rep, ck_root) *)
    }

type Netbase.Packet.payload += Scada_msg of t

let encode_breaker_command ~rep ~exec_seq ~breaker ~close =
  Printf.sprintf "bc:%d:%d:%s:%d" rep exec_seq breaker (if close then 1 else 0)

let encode_hmi_batch ~rep ~exec_seq ~changes =
  Printf.sprintf "hb:%d:%d:%s" rep exec_seq
    (String.concat ","
       (List.map (fun (b, closed) -> Printf.sprintf "%s=%d" b (if closed then 1 else 0)) changes))

let encode_checkpoint_reply ~rep ~root =
  Printf.sprintf "ckr:%d:%s" rep (Crypto.Sha256.to_hex root)

let size = function
  | Breaker_command _ -> 80 + Crypto.Signature.size_bytes
  | Hmi_batch { hb_changes; _ } ->
      40 + (12 * List.length hb_changes) + Crypto.Signature.size_bytes
  | App_state_request _ -> 40
  | Checkpoint_reply { ckr_ck; _ } ->
      16 + Crypto.Signature.size_bytes + Store.Checkpoint.size ckr_ck

let describe = function
  | Breaker_command { bc_rep; bc_breaker; bc_close; _ } ->
      Printf.sprintf "breaker-command %s=%b from replica %d" bc_breaker bc_close bc_rep
  | Hmi_batch { hb_rep; hb_changes; _ } ->
      Printf.sprintf "hmi-batch of %d changes from replica %d" (List.length hb_changes) hb_rep
  | App_state_request { asr_rep } -> Printf.sprintf "app-state-request from replica %d" asr_rep
  | Checkpoint_reply { ckr_rep; ckr_ck; _ } ->
      Printf.sprintf "checkpoint-reply from replica %d at exec %d" ckr_rep
        ckr_ck.Store.Checkpoint.ck_exec_seq
