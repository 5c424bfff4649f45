(* Passive packet capture.

   MANA receives an out-of-band copy of network traffic (the paper's SPAN
   port); a capture is a chronological record of frame metadata. Payloads
   are not inspected — mirroring the paper's observation that proprietary
   or encrypted protocols defeat deep inspection, so the IDS must work
   from flow statistics alone.

   A capture keeps every frame from boot (MANA trains retroactively over
   any past interval), so each fact is stored once, in the fewest words.
   A deployment's traffic repeats a few hundred flows, (kind, MACs, IPs,
   ports) tuples, so a capture interns them: a flat [int array] of
   [key_ints] ints per flow, found through an open-addressing index. A
   record is then its time, in a float chunk, and one int in an int
   chunk, [size lsl flow_bits lor flow]: 16 bytes a record plus the flow
   table. [records] and [window] rebuild [record] values on demand. *)

type record = {
  time : float;
  size : int;
  src_mac : Addr.Mac.t;
  dst_mac : Addr.Mac.t;
  info : info;
}

and info =
  | Arp of { sender_ip : Addr.Ip.t; target_ip : Addr.Ip.t; is_reply : bool }
  | Udp of { src : Addr.Ip.t; dst : Addr.Ip.t; src_port : int; dst_port : int }

(* Ints per flow key: the kind, the two MACs, the two IPs (ARP
   sender/target or UDP src/dst) and the two UDP ports (0 for ARP). *)
let key_ints = 7

let kind_arp_request = 0

let kind_arp_reply = 1

let kind_udp = 2

(* A record's int: the frame size above the low [flow_bits] bits, the
   flow id in them. *)
let flow_bits = 24

let flow_mask = (1 lsl flow_bits) - 1

let chunk_records = 1024

(* The index starts with room for 64 flows at load one half, and doubles
   past that. *)
let initial_index = 128

let initial_flows = 16

type t = {
  mutable times : float array array; (* chunk -> record -> time *)
  mutable packed : int array array; (* chunk -> record -> size lsl flow_bits lor flow *)
  mutable count : int;
  mutable keys : int array; (* flow * key_ints + field *)
  mutable flows : int; (* distinct flows interned *)
  mutable index : int array; (* hash slot -> flow + 1, or 0 when empty *)
}

let create () =
  {
    times = [||];
    packed = [||];
    count = 0;
    keys = Array.make (initial_flows * key_ints) 0;
    flows = 0;
    index = Array.make initial_index 0;
  }

let of_frame ~time (frame : Packet.frame) =
  let info =
    match frame.l3 with
    | Packet.Arp_request { sender_ip; target_ip; _ } -> Arp { sender_ip; target_ip; is_reply = false }
    | Packet.Arp_reply { sender_ip; target_ip; _ } -> Arp { sender_ip; target_ip; is_reply = true }
    | Packet.Ipv4 { src; dst; udp; _ } ->
        Udp { src; dst; src_port = udp.src_port; dst_port = udp.dst_port }
  in
  { time; size = Packet.frame_size frame; src_mac = frame.src_mac; dst_mac = frame.dst_mac; info }

(* --- the flow table -------------------------------------------------------------- *)

(* FNV-style over whole ints, then the high bits folded into the low ones
   the index masks with. Straight-line and allocation-free, like every
   function on the per-frame path. *)
let mix h k = (h lxor k) * 0x100000001b3

let hash kind src_mac dst_mac a b src_port dst_port =
  let h =
    mix
      (mix (mix (mix (mix (mix (mix 0x2545F4914F6CDD1D kind) src_mac) dst_mac) a) b) src_port)
      dst_port
  in
  h lxor (h lsr 31)

let hash_flow keys flow =
  let base = flow * key_ints in
  hash keys.(base) keys.(base + 1) keys.(base + 2) keys.(base + 3) keys.(base + 4)
    keys.(base + 5) keys.(base + 6)

(* The first empty slot probed from [i]. *)
let rec free_slot index i =
  if index.(i) = 0 then i else free_slot index ((i + 1) land (Array.length index - 1))

(* The flow with this key, or [-1 - slot] for the empty slot where it
   belongs. *)
let rec find t i kind src_mac dst_mac a b src_port dst_port =
  let entry = t.index.(i) in
  if entry = 0 then -1 - i
  else
    let keys = t.keys and base = (entry - 1) * key_ints in
    if
      keys.(base) = kind
      && keys.(base + 1) = src_mac
      && keys.(base + 2) = dst_mac
      && keys.(base + 3) = a
      && keys.(base + 4) = b
      && keys.(base + 5) = src_port
      && keys.(base + 6) = dst_port
    then entry - 1
    else
      find t ((i + 1) land (Array.length t.index - 1)) kind src_mac dst_mac a b src_port dst_port

let grow_index t =
  let index = Array.make (2 * Array.length t.index) 0 in
  let mask = Array.length index - 1 in
  for flow = 0 to t.flows - 1 do
    index.(free_slot index (hash_flow t.keys flow land mask)) <- flow + 1
  done;
  t.index <- index

let intern t kind src_mac dst_mac a b src_port dst_port =
  let mask = Array.length t.index - 1 in
  let found =
    find t (hash kind src_mac dst_mac a b src_port dst_port land mask) kind src_mac dst_mac a b
      src_port dst_port
  in
  if found >= 0 then found
  else begin
    let flow = t.flows in
    if flow > flow_mask then failwith "Pcap.capture: more than 2^24 distinct flows";
    let base = flow * key_ints in
    if base = Array.length t.keys then begin
      let keys = Array.make (2 * base) 0 in
      Array.blit t.keys 0 keys 0 base;
      t.keys <- keys
    end;
    let keys = t.keys in
    keys.(base) <- kind;
    keys.(base + 1) <- src_mac;
    keys.(base + 2) <- dst_mac;
    keys.(base + 3) <- a;
    keys.(base + 4) <- b;
    keys.(base + 5) <- src_port;
    keys.(base + 6) <- dst_port;
    t.index.(-1 - found) <- flow + 1;
    t.flows <- flow + 1;
    if 2 * t.flows > Array.length t.index then grow_index t;
    flow
  end

(* --- records --------------------------------------------------------------------- *)

let add_chunk t =
  let n = Array.length t.times in
  let grow a fresh =
    let b = Array.make (max 4 (2 * n)) fresh in
    Array.blit a 0 b 0 n;
    b
  in
  let c = t.count / chunk_records in
  let times = Array.make chunk_records 0.0 and packed = Array.make chunk_records 0 in
  if c = n then begin
    t.times <- grow t.times times;
    t.packed <- grow t.packed packed
  end;
  t.times.(c) <- times;
  t.packed.(c) <- packed

let capture t ~time (frame : Packet.frame) =
  let c = t.count / chunk_records and i = t.count mod chunk_records in
  if i = 0 then add_chunk t;
  let src_mac = Addr.Mac.to_int frame.src_mac and dst_mac = Addr.Mac.to_int frame.dst_mac in
  let ip = Addr.Ip.to_int in
  let flow =
    match frame.l3 with
    | Packet.Arp_request { sender_ip; target_ip; _ } ->
        intern t kind_arp_request src_mac dst_mac (ip sender_ip) (ip target_ip) 0 0
    | Packet.Arp_reply { sender_ip; target_ip; _ } ->
        intern t kind_arp_reply src_mac dst_mac (ip sender_ip) (ip target_ip) 0 0
    | Packet.Ipv4 { src; dst; udp; _ } ->
        intern t kind_udp src_mac dst_mac (ip src) (ip dst) udp.src_port udp.dst_port
  in
  t.times.(c).(i) <- time;
  t.packed.(c).(i) <- (Packet.frame_size frame lsl flow_bits) lor flow;
  t.count <- t.count + 1

let time_at t k = t.times.(k / chunk_records).(k mod chunk_records)

let record_at t k =
  let packed = t.packed.(k / chunk_records).(k mod chunk_records) in
  let keys = t.keys and base = (packed land flow_mask) * key_ints in
  let kind = keys.(base) in
  let a = Addr.Ip.of_int keys.(base + 3) and b = Addr.Ip.of_int keys.(base + 4) in
  let info =
    if kind = kind_udp then
      Udp { src = a; dst = b; src_port = keys.(base + 5); dst_port = keys.(base + 6) }
    else Arp { sender_ip = a; target_ip = b; is_reply = kind = kind_arp_reply }
  in
  {
    time = time_at t k;
    size = packed asr flow_bits;
    src_mac = Addr.Mac.of_int keys.(base + 1);
    dst_mac = Addr.Mac.of_int keys.(base + 2);
    info;
  }

(* Records [lo, hi), in capture order. *)
let rebuild t ~lo ~hi =
  let acc = ref [] in
  for k = hi - 1 downto lo do
    acc := record_at t k :: !acc
  done;
  !acc

let records t = rebuild t ~lo:0 ~hi:t.count

let length t = t.count

(* First index whose time is >= [x], or [count]. *)
let lower_bound t x =
  let lo = ref 0 and hi = ref t.count in
  while !lo < !hi do
    let mid = (!lo + !hi) lsr 1 in
    if time_at t mid < x then lo := mid + 1 else hi := mid
  done;
  !lo

let window t ~t0 ~t1 = rebuild t ~lo:(lower_bound t t0) ~hi:(lower_bound t t1)

let clear t =
  let fresh = create () in
  t.times <- fresh.times;
  t.packed <- fresh.packed;
  t.count <- 0;
  t.keys <- fresh.keys;
  t.flows <- 0;
  t.index <- fresh.index
