(* Simulated digital signatures.

   The paper's systems sign messages with RSA keys. No public-key package
   is installed here, so we model signatures as HMAC-SHA256 tags under a
   per-identity secret held in a keystore that plays the role of the PKI.

   The security property the protocols need — only the holder of the
   private key can produce a signature that verifies under the matching
   public key — is enforced structurally: [keypair] values are unforgeable
   capabilities (the secret is never exposed), and [sign] is the only way
   to build a [t] carrying a valid tag. Simulated attackers that have not
   captured a replica's keypair cannot call [sign] as that identity; an
   attacker that *has* captured one (the paper's root-access excursion)
   can, which is exactly the threat model BFT replication addresses. *)

type identity = string

(* The HMAC key schedule is precomputed at generation time: signing and
   verifying then cost two context copies each instead of re-deriving the
   padded key blocks per message. *)
type keypair = { id : identity; sched : Hmac.schedule }

type t = { signer : identity; tag : string }

type keystore = { secrets : (identity, Hmac.schedule) Hashtbl.t; mutable counter : int }

let create_keystore () = { secrets = Hashtbl.create 32; counter = 0 }

let generate ks id =
  if Hashtbl.mem ks.secrets id then
    invalid_arg (Printf.sprintf "Signature.generate: identity %s already registered" id);
  ks.counter <- ks.counter + 1;
  (* Secrets only need to be unique and unguessable-by-construction inside
     the simulation; deriving them from the keystore instance and a counter
     keeps runs deterministic. *)
  let secret = Sha256.digest (Printf.sprintf "keystore-secret:%s:%d" id ks.counter) in
  let sched = Hmac.schedule ~key:secret in
  Hashtbl.replace ks.secrets id sched;
  { id; sched }

let identity kp = kp.id

let signer t = t.signer

let tag t = t.tag

let sign kp message = { signer = kp.id; tag = Hmac.mac_sched kp.sched message }

let verify ks ~signer message t =
  String.equal t.signer signer
  &&
  match Hashtbl.find_opt ks.secrets signer with
  | None -> false
  | Some sched -> Hmac.verify_sched sched ~tag:t.tag message

(* Rehydrating persisted wire material (signer + tag) cannot mint valid
   signatures: verification recomputes the HMAC, so a rehydrated tag only
   verifies if [sign] produced it in the first place. *)
let of_tag ~signer tag = { signer; tag }

(* A deliberately invalid signature, used by attack code to model a forged
   message from an adversary who lacks the key. *)
let forge ~signer message =
  { signer; tag = Hmac.mac ~key:"attacker-has-no-key" message }

let size_bytes = 32
