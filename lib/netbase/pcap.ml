(* Passive packet capture.

   MANA receives an out-of-band copy of network traffic (the paper's SPAN
   port); a capture is a chronological record of frame metadata. Payloads
   are not inspected — mirroring the paper's observation that proprietary
   or encrypted protocols defeat deep inspection, so the IDS must work
   from flow statistics alone.

   A capture keeps every frame from boot (MANA trains retroactively over
   any past interval), so records are stored flat rather than as one heap
   block each: fixed-size chunks of columns, a float array of times and
   an int array of [fields] ints per record, 64 bytes a record in all.
   [records] and [window] rebuild [record] values on demand. *)

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

(* Ints per record: size and kind packed together (size lsl 2 lor kind),
   the two MACs, the two IPs (ARP sender/target or UDP src/dst) and the
   two UDP ports (0 for ARP). *)
let fields = 7

let kind_arp_request = 0

let kind_arp_reply = 1

let kind_udp = 2

let chunk_records = 1024

type t = {
  mutable times : float array array; (* chunk -> record -> time *)
  mutable ints : int array array; (* chunk -> record * fields + field *)
  mutable count : int;
}

let create () = { times = [||]; ints = [||]; count = 0 }

let of_frame ~time (frame : Packet.frame) =
  let info =
    match frame.l3 with
    | Packet.Arp_request { sender_ip; target_ip; _ } -> Arp { sender_ip; target_ip; is_reply = false }
    | Packet.Arp_reply { sender_ip; target_ip; _ } -> Arp { sender_ip; target_ip; is_reply = true }
    | Packet.Ipv4 { src; dst; udp; _ } ->
        Udp { src; dst; src_port = udp.src_port; dst_port = udp.dst_port }
  in
  { time; size = Packet.frame_size frame; src_mac = frame.src_mac; dst_mac = frame.dst_mac; info }

let add_chunk t =
  let n = Array.length t.times in
  let grow a fresh =
    let b = Array.make (max 4 (2 * n)) fresh in
    Array.blit a 0 b 0 n;
    b
  in
  let c = t.count / chunk_records in
  let times = Array.make chunk_records 0.0 and ints = Array.make (chunk_records * fields) 0 in
  if c = n then begin
    t.times <- grow t.times times;
    t.ints <- grow t.ints ints
  end;
  t.times.(c) <- times;
  t.ints.(c) <- ints

let put ints base ~size ~kind ~src_mac ~dst_mac a b src_port dst_port =
  ints.(base) <- (size lsl 2) lor kind;
  ints.(base + 1) <- src_mac;
  ints.(base + 2) <- dst_mac;
  ints.(base + 3) <- a;
  ints.(base + 4) <- b;
  ints.(base + 5) <- src_port;
  ints.(base + 6) <- dst_port

let capture t ~time (frame : Packet.frame) =
  let c = t.count / chunk_records and i = t.count mod chunk_records in
  if i = 0 then add_chunk t;
  t.times.(c).(i) <- time;
  let ints = t.ints.(c) and base = i * fields and size = Packet.frame_size frame in
  let src_mac = Addr.Mac.to_int frame.src_mac and dst_mac = Addr.Mac.to_int frame.dst_mac in
  let ip = Addr.Ip.to_int in
  (match frame.l3 with
  | Packet.Arp_request { sender_ip; target_ip; _ } ->
      put ints base ~size ~kind:kind_arp_request ~src_mac ~dst_mac (ip sender_ip) (ip target_ip)
        0 0
  | Packet.Arp_reply { sender_ip; target_ip; _ } ->
      put ints base ~size ~kind:kind_arp_reply ~src_mac ~dst_mac (ip sender_ip) (ip target_ip)
        0 0
  | Packet.Ipv4 { src; dst; udp; _ } ->
      put ints base ~size ~kind:kind_udp ~src_mac ~dst_mac (ip src) (ip dst) udp.src_port
        udp.dst_port);
  t.count <- t.count + 1

let time_at t k = t.times.(k / chunk_records).(k mod chunk_records)

let record_at t k =
  let ints = t.ints.(k / chunk_records) and base = k mod chunk_records * fields in
  let packed = ints.(base) in
  let a = Addr.Ip.of_int ints.(base + 3) and b = Addr.Ip.of_int ints.(base + 4) in
  let kind = packed land 3 in
  let info =
    if kind = kind_udp then
      Udp { src = a; dst = b; src_port = ints.(base + 5); dst_port = ints.(base + 6) }
    else Arp { sender_ip = a; target_ip = b; is_reply = kind = kind_arp_reply }
  in
  {
    time = time_at t k;
    size = packed asr 2;
    src_mac = Addr.Mac.of_int ints.(base + 1);
    dst_mac = Addr.Mac.of_int ints.(base + 2);
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
  t.times <- [||];
  t.ints <- [||];
  t.count <- 0
