(** Passive packet capture: frame metadata only (no payload inspection),
    as delivered to MANA via a mirror port. Keeps every frame since
    creation (or {!clear}). Each distinct flow (kind, MACs, IPs, ports) is
    stored once, in a table the capture interns into, so a record costs 16
    bytes: its time and one int holding its size and flow. {!records} and
    {!window} rebuild records on demand. *)

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

type t

val create : unit -> t

(** Convert a frame to a capture record. *)
val of_frame : time:float -> Packet.frame -> record

(** Append a frame to the capture. [time] must be no earlier than the
    previous capture's (as with a sim clock): {!window} relies on it.
    Allocates nothing once the frame's flow is interned; fails with
    [Failure] past 2{^24} distinct flows. *)
val capture : t -> time:float -> Packet.frame -> unit

(** All records, chronological. *)
val records : t -> record list

val length : t -> int

(** Records with [t0 <= time < t1], in capture order, found by binary
    search over the capture times. *)
val window : t -> t0:float -> t1:float -> record list

val clear : t -> unit
