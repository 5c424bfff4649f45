(* Network addressing: MAC and IPv4-style addresses.

   Addresses are integers internally; the pretty forms ("10.0.1.3",
   "02:00:00:00:00:07") appear in traces and attack logs. *)

module Mac = struct
  type t = int

  let broadcast = 0xFFFFFFFFFFFF

  let counter = ref 0

  (* Locally-administered unicast prefix 02:00:... *)
  let fresh () =
    incr counter;
    0x020000000000 + !counter

  let is_broadcast mac = mac = broadcast

  let equal = Int.equal

  let compare = Int.compare

  let to_int mac = mac

  let of_int mac = mac

  let to_string mac =
    Printf.sprintf "%02x:%02x:%02x:%02x:%02x:%02x" ((mac lsr 40) land 0xFF)
      ((mac lsr 32) land 0xFF) ((mac lsr 24) land 0xFF) ((mac lsr 16) land 0xFF)
      ((mac lsr 8) land 0xFF) (mac land 0xFF)

  let pp ppf mac = Fmt.string ppf (to_string mac)
end

module Ip = struct
  type t = int

  let v a b c d =
    if a < 0 || a > 255 || b < 0 || b > 255 || c < 0 || c > 255 || d < 0 || d > 255 then
      invalid_arg "Ip.v: octet out of range";
    (a lsl 24) lor (b lsl 16) lor (c lsl 8) lor d

  let broadcast = v 255 255 255 255

  let equal = Int.equal

  let compare = Int.compare

  let hash = Hashtbl.hash

  let to_int ip = ip

  let of_int ip = ip

  let to_string ip =
    Printf.sprintf "%d.%d.%d.%d" ((ip lsr 24) land 0xFF) ((ip lsr 16) land 0xFF)
      ((ip lsr 8) land 0xFF) (ip land 0xFF)

  let of_string s =
    match String.split_on_char '.' s with
    | [ a; b; c; d ] -> (
        try v (int_of_string a) (int_of_string b) (int_of_string c) (int_of_string d)
        with Failure _ | Invalid_argument _ -> invalid_arg ("Ip.of_string: " ^ s))
    | _ -> invalid_arg ("Ip.of_string: " ^ s)

  (* /24 convenience used throughout the testbed topologies. *)
  let same_subnet24 a b = a lsr 8 = b lsr 8

  let pp ppf ip = Fmt.string ppf (to_string ip)
end

type endpoint = { ip : Ip.t; port : int }

let endpoint ip port = { ip; port }

let pp_endpoint ppf e = Fmt.pf ppf "%a:%d" Ip.pp e.ip e.port
