(* Bounded verified-signature cache.

   Relayed and retransmitted protocol messages re-verify the same
   (signer, tag, message) triple many times — every po-request relay
   carries the same client signature, and every matrix re-verifies the
   same summaries. The cache remembers triples whose HMAC check already
   succeeded; a hit skips the HMAC entirely.

   Soundness: the key covers the signer, the tag AND the exact signed
   bytes, and entries are inserted only after a successful verification.
   A forged tag therefore never hits (different tag, different key) and
   never populates the cache (its verification fails). Eviction is FIFO
   with a hard capacity bound, so a flood of one-off signatures cannot
   grow memory; capacity 0 keeps nothing. *)

type t = {
  capacity : int;
  table : (string, unit) Hashtbl.t;
  order : string Queue.t; (* insertion order, for FIFO eviction *)
}

let create ~capacity =
  if capacity < 0 then invalid_arg "Sigcache.create: negative capacity";
  { capacity; table = Hashtbl.create (max 16 capacity); order = Queue.create () }

let size t = Hashtbl.length t.table

let clear t =
  Hashtbl.reset t.table;
  Queue.clear t.order

let key ~signer ~tag message =
  (* Components are length-delimited by construction: signer identities
     contain no NUL and tags are fixed-width, so the triple is
     unambiguous. *)
  String.concat "\x00" [ signer; tag; message ]

let remember t key =
  Hashtbl.replace t.table key ();
  Queue.push key t.order;
  while Hashtbl.length t.table > t.capacity do
    Hashtbl.remove t.table (Queue.pop t.order)
  done

(* Check [s] over [message]. [`Hit] means the same triple was verified
   earlier; [`Valid] means a fresh verification succeeded and was cached;
   [`Invalid] means it failed. The signature must name [signer] itself:
   the key covers the caller's [signer], so without this comparison a
   copy of a cached tag relabelled with another signer would hit where
   [Signature.verify] rejects it. *)
let check t ks ~signer message s =
  if not (String.equal (Crypto.Signature.signer s) signer) then `Invalid
  else
    let k = key ~signer ~tag:(Crypto.Signature.tag s) message in
    if Hashtbl.mem t.table k then `Hit
    else if Crypto.Signature.verify ks ~signer message s then begin
      remember t k;
      `Valid
    end
    else `Invalid
