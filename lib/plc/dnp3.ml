(* DNP3 (IEEE 1815) subset, binary-framed.

   The deployment's field devices speak "typical, insecure industrial
   communication protocols, such as Modbus or DNP3" (Section II). This
   module implements the DNP3 application-layer subset an RTU front-end
   needs: class-based event polling (the protocol's defining feature —
   devices buffer change events and report them on demand), static reads,
   and CROB-style operate commands for breaker control.

   Framing: a compact link-layer header (start bytes, length, a 16-bit
   additive checksum standing in for DNP3's CRC-16/DNP per block) around
   an application PDU. Like Modbus, everything is plaintext and
   unauthenticated — which is why it only ever runs on the dedicated
   proxy-to-RTU wire in Spire. *)

let tcp_port = 20000

type request =
  | Read_class of { classes : int list (* 0 = static, 1..3 = event classes *) }
  | Read_analogs (* group-30 style static analog input read *)
  | Operate of { index : int; close : bool (* CROB latch on/off *) }
  | Clear_events

type event = { ev_index : int; ev_closed : bool; ev_time : float }

type response =
  | Static_data of bool list (* binary input states by index *)
  | Analog_data of int list (* signed 32-bit analog values by index *)
  | Events of event list
  | Operate_ack of { op_index : int; op_close : bool; success : bool }
  | Events_cleared

type 'a framed = { sequence : int; body : 'a }

type Netbase.Packet.payload += Frame of string

exception Decode_error of string

(* --- binary helpers ------------------------------------------------------ *)

let u8 buf v = Buffer.add_char buf (Char.chr (v land 0xFF))

let u16 buf v =
  u8 buf (v land 0xFF);
  u8 buf ((v lsr 8) land 0xFF)

let u32 buf v =
  u16 buf (v land 0xFFFF);
  u16 buf ((v lsr 16) land 0xFFFF)

let get_u8 s off = Char.code s.[off]

let get_u16 s off = get_u8 s off lor (get_u8 s (off + 1) lsl 8)

let get_u32 s off = get_u16 s off lor (get_u16 s (off + 2) lsl 16)

let need s off n = if String.length s < off + n then raise (Decode_error "short frame")

(* Decoding is canonical: bytes past a message's fields are rejected, as
   is any field value the encoder never writes, so every accepted frame
   is the encoding of what it decodes to. *)
let exact s n = if String.length s <> n then raise (Decode_error "length mismatch")

let get_flag s off =
  match get_u8 s off with
  | 0 -> false
  | 1 -> true
  | v -> raise (Decode_error (Printf.sprintf "bad flag byte 0x%02x" v))

let checksum s =
  let acc = ref 0 in
  String.iter (fun c -> acc := (!acc + Char.code c) land 0xFFFF) s;
  !acc

(* Link layer: 0x05 0x64, length, checksum, payload. *)
let frame payload =
  let buf = Buffer.create (String.length payload + 6) in
  u8 buf 0x05;
  u8 buf 0x64;
  u16 buf (String.length payload);
  u16 buf (checksum payload);
  Buffer.add_string buf payload;
  Buffer.contents buf

let unframe s =
  need s 0 6;
  if get_u8 s 0 <> 0x05 || get_u8 s 1 <> 0x64 then raise (Decode_error "bad start bytes");
  let len = get_u16 s 2 in
  let sum = get_u16 s 4 in
  exact s (6 + len);
  let payload = String.sub s 6 len in
  if checksum payload <> sum then raise (Decode_error "checksum mismatch");
  payload

(* --- application layer ---------------------------------------------------- *)

(* Function codes (loosely matching DNP3's READ=1, OPERATE=4 and a private
   code for event clearing; responses use 0x81 "response"). *)

let encode_request { sequence; body } =
  let buf = Buffer.create 16 in
  u8 buf (sequence land 0xFF);
  (match body with
  | Read_class { classes } ->
      u8 buf 0x01;
      u8 buf (List.length classes);
      List.iter (fun c -> u8 buf c) classes
  | Read_analogs -> u8 buf 0x02
  | Operate { index; close } ->
      u8 buf 0x04;
      u16 buf index;
      u8 buf (if close then 0x03 (* latch on *) else 0x04 (* latch off *))
  | Clear_events -> u8 buf 0x7E);
  frame (Buffer.contents buf)

let decode_request s =
  let p = unframe s in
  need p 0 2;
  let sequence = get_u8 p 0 in
  let body =
    match get_u8 p 1 with
    | 0x01 ->
        need p 2 1;
        let n = get_u8 p 2 in
        exact p (3 + n);
        Read_class { classes = List.init n (fun i -> get_u8 p (3 + i)) }
    | 0x02 ->
        exact p 2;
        Read_analogs
    | 0x04 ->
        exact p 5;
        let index = get_u16 p 2 in
        (match get_u8 p 4 with
        | 0x03 -> Operate { index; close = true }
        | 0x04 -> Operate { index; close = false }
        | code -> raise (Decode_error (Printf.sprintf "bad CROB code 0x%02x" code)))
    | 0x7E ->
        exact p 2;
        Clear_events
    | code -> raise (Decode_error (Printf.sprintf "unsupported function 0x%02x" code))
  in
  { sequence; body }

(* Event timestamps ride as milliseconds in a 32-bit field: ample for
   simulated deployments. Rounding (not truncating) to the millisecond
   makes a decoded timestamp re-encode to the same field. *)
let encode_response { sequence; body } =
  let buf = Buffer.create 32 in
  u8 buf (sequence land 0xFF);
  u8 buf 0x81;
  (match body with
  | Static_data bits ->
      u8 buf 0x01;
      u16 buf (List.length bits);
      let bytes = Array.make ((List.length bits + 7) / 8) 0 in
      List.iteri (fun i b -> if b then bytes.(i / 8) <- bytes.(i / 8) lor (1 lsl (i mod 8))) bits;
      Array.iter (fun b -> u8 buf b) bytes
  | Analog_data values ->
      u8 buf 0x05;
      u16 buf (List.length values);
      List.iter (fun v -> u32 buf (v land 0xFFFFFFFF)) values
  | Events events ->
      u8 buf 0x02;
      u16 buf (List.length events);
      List.iter
        (fun e ->
          u16 buf e.ev_index;
          u8 buf (if e.ev_closed then 1 else 0);
          u32 buf (Float.to_int (Float.round (e.ev_time *. 1000.0))))
        events
  | Operate_ack { op_index; op_close; success } ->
      u8 buf 0x03;
      u16 buf op_index;
      u8 buf (if op_close then 1 else 0);
      u8 buf (if success then 0 else 1 (* DNP3 status: 0 = success *))
  | Events_cleared -> u8 buf 0x04);
  frame (Buffer.contents buf)

let decode_response s =
  let p = unframe s in
  need p 0 3;
  let sequence = get_u8 p 0 in
  if get_u8 p 1 <> 0x81 then raise (Decode_error "not a response");
  let body =
    match get_u8 p 2 with
    | 0x01 ->
        need p 3 2;
        let n = get_u16 p 3 in
        let nbytes = (n + 7) / 8 in
        exact p (5 + nbytes);
        (* The last byte's padding bits are zero. *)
        if n land 7 <> 0 && get_u8 p (4 + nbytes) lsr (n land 7) <> 0 then
          raise (Decode_error "nonzero padding bits");
        Static_data
          (List.init n (fun i -> get_u8 p (5 + (i / 8)) land (1 lsl (i mod 8)) <> 0))
    | 0x05 ->
        need p 3 2;
        let n = get_u16 p 3 in
        exact p (5 + (n * 4));
        Analog_data
          (List.init n (fun i ->
               let v = get_u32 p (5 + (i * 4)) in
               (* sign-extend from 32 bits *)
               if v land 0x80000000 <> 0 then v - 0x100000000 else v))
    | 0x02 ->
        need p 3 2;
        let n = get_u16 p 3 in
        exact p (5 + (n * 7));
        Events
          (List.init n (fun i ->
               let off = 5 + (i * 7) in
               {
                 ev_index = get_u16 p off;
                 ev_closed = get_flag p (off + 2);
                 ev_time = float_of_int (get_u32 p (off + 3)) /. 1000.0;
               }))
    | 0x03 ->
        exact p 7;
        Operate_ack
          { op_index = get_u16 p 3; op_close = get_flag p 5; success = not (get_flag p 6) }
    | 0x04 ->
        exact p 3;
        Events_cleared
    | code -> raise (Decode_error (Printf.sprintf "unsupported response 0x%02x" code))
  in
  { sequence; body }

let describe_request = function
  | Read_class { classes } ->
      Printf.sprintf "read-class [%s]" (String.concat ";" (List.map string_of_int classes))
  | Read_analogs -> "read-analogs"
  | Operate { index; close } -> Printf.sprintf "operate %d=%b" index close
  | Clear_events -> "clear-events"
