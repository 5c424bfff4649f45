(* Modbus protocol: MBAP-framed PDUs with real binary encoding.

   The subset implemented is what the deployment used: coil reads/writes
   for breaker control and register reads for status. Frames are encoded
   to actual bytes — Modbus is a plaintext protocol, and the red-team
   experiment depends on that: an attacker who can see or inject
   operations-network traffic can decode and forge these frames (which is
   why Spire only speaks Modbus over a dedicated wire behind the proxy). *)

let tcp_port = 502

type request =
  | Read_coils of { addr : int; count : int }
  | Write_single_coil of { addr : int; value : bool }
  | Read_holding_registers of { addr : int; count : int }
  | Write_single_register of { addr : int; value : int }

type response =
  | Coils of bool list
  | Coil_written of { addr : int; value : bool }
  | Registers of int list
  | Register_written of { addr : int; value : int }
  | Exception_response of { function_code : int; exception_code : int }

type 'a framed = { transaction : int; unit_id : int; body : 'a }

type Netbase.Packet.payload += Frame of string (* raw bytes on the wire *)

(* --- binary helpers ----------------------------------------------------- *)

let u8 buf v = Buffer.add_char buf (Char.chr (v land 0xFF))

let u16 buf v =
  u8 buf (v lsr 8);
  u8 buf v

let get_u8 s off = Char.code s.[off]

let get_u16 s off = (get_u8 s off lsl 8) lor get_u8 s (off + 1)

exception Decode_error of string

let need s off n =
  if String.length s < off + n then raise (Decode_error "short frame")

(* Decoding is canonical: a frame or PDU with bytes past its fields is
   rejected, so every accepted frame is the encoding of what it decodes
   to. *)
let exact s n = if String.length s <> n then raise (Decode_error "length mismatch")

(* Coil values on the wire are 0xFF00 (on) or 0x0000 (off), nothing else. *)
let get_coil s off =
  match get_u16 s off with
  | 0xFF00 -> true
  | 0x0000 -> false
  | v -> raise (Decode_error (Printf.sprintf "bad coil value 0x%04x" v))

(* --- PDU encoding -------------------------------------------------------- *)

let encode_request_pdu buf = function
  | Read_coils { addr; count } ->
      u8 buf 0x01;
      u16 buf addr;
      u16 buf count
  | Write_single_coil { addr; value } ->
      u8 buf 0x05;
      u16 buf addr;
      u16 buf (if value then 0xFF00 else 0x0000)
  | Read_holding_registers { addr; count } ->
      u8 buf 0x03;
      u16 buf addr;
      u16 buf count
  | Write_single_register { addr; value } ->
      u8 buf 0x06;
      u16 buf addr;
      u16 buf value

let encode_response_pdu buf = function
  | Coils bits ->
      u8 buf 0x01;
      let nbytes = (List.length bits + 7) / 8 in
      u8 buf nbytes;
      let bytes = Array.make nbytes 0 in
      List.iteri (fun i b -> if b then bytes.(i / 8) <- bytes.(i / 8) lor (1 lsl (i mod 8))) bits;
      Array.iter (fun b -> u8 buf b) bytes
  | Coil_written { addr; value } ->
      u8 buf 0x05;
      u16 buf addr;
      u16 buf (if value then 0xFF00 else 0x0000)
  | Registers regs ->
      u8 buf 0x03;
      u8 buf (2 * List.length regs);
      List.iter (fun r -> u16 buf r) regs
  | Register_written { addr; value } ->
      u8 buf 0x06;
      u16 buf addr;
      u16 buf value
  | Exception_response { function_code; exception_code } ->
      u8 buf (function_code lor 0x80);
      u8 buf exception_code

(* MBAP header: transaction id, protocol id (0), length, unit id. *)
let encode_mbap ~transaction ~unit_id pdu =
  let buf = Buffer.create 16 in
  u16 buf transaction;
  u16 buf 0;
  u16 buf (String.length pdu + 1);
  u8 buf unit_id;
  Buffer.add_string buf pdu;
  Buffer.contents buf

let encode_request { transaction; unit_id; body } =
  let buf = Buffer.create 8 in
  encode_request_pdu buf body;
  encode_mbap ~transaction ~unit_id (Buffer.contents buf)

let encode_response { transaction; unit_id; body } =
  let buf = Buffer.create 8 in
  encode_response_pdu buf body;
  encode_mbap ~transaction ~unit_id (Buffer.contents buf)

(* --- decoding -------------------------------------------------------------- *)

let decode_mbap s =
  need s 0 8;
  let transaction = get_u16 s 0 in
  let proto = get_u16 s 2 in
  if proto <> 0 then raise (Decode_error "bad protocol id");
  let len = get_u16 s 4 in
  (* The length counts the unit id and the PDU and must cover the rest of
     the frame exactly; with the 8 bytes checked above, that leaves room
     for the unit id and a function code. *)
  exact s (6 + len);
  let unit_id = get_u8 s 6 in
  (transaction, unit_id, String.sub s 7 (len - 1))

let decode_request s =
  let transaction, unit_id, pdu = decode_mbap s in
  need pdu 0 1;
  let body =
    match get_u8 pdu 0 with
    | 0x01 ->
        exact pdu 5;
        Read_coils { addr = get_u16 pdu 1; count = get_u16 pdu 3 }
    | 0x05 ->
        exact pdu 5;
        Write_single_coil { addr = get_u16 pdu 1; value = get_coil pdu 3 }
    | 0x03 ->
        exact pdu 5;
        Read_holding_registers { addr = get_u16 pdu 1; count = get_u16 pdu 3 }
    | 0x06 ->
        exact pdu 5;
        Write_single_register { addr = get_u16 pdu 1; value = get_u16 pdu 3 }
    | code -> raise (Decode_error (Printf.sprintf "unsupported function 0x%02x" code))
  in
  { transaction; unit_id; body }

let decode_response s =
  let transaction, unit_id, pdu = decode_mbap s in
  need pdu 0 1;
  let code = get_u8 pdu 0 in
  let body =
    if code land 0x80 <> 0 then begin
      exact pdu 2;
      Exception_response { function_code = code land 0x7F; exception_code = get_u8 pdu 1 }
    end
    else
      match code with
      | 0x01 ->
          need pdu 1 1;
          let nbytes = get_u8 pdu 1 in
          exact pdu (2 + nbytes);
          let bits = ref [] in
          for i = nbytes - 1 downto 0 do
            let b = get_u8 pdu (2 + i) in
            for j = 7 downto 0 do
              bits := (b land (1 lsl j) <> 0) :: !bits
            done
          done;
          Coils !bits
      | 0x05 ->
          exact pdu 5;
          Coil_written { addr = get_u16 pdu 1; value = get_coil pdu 3 }
      | 0x03 ->
          need pdu 1 1;
          let nbytes = get_u8 pdu 1 in
          if nbytes land 1 <> 0 then raise (Decode_error "odd register byte count");
          exact pdu (2 + nbytes);
          let regs = ref [] in
          for i = (nbytes / 2) - 1 downto 0 do
            regs := get_u16 pdu (2 + (2 * i)) :: !regs
          done;
          Registers !regs
      | 0x06 ->
          exact pdu 5;
          Register_written { addr = get_u16 pdu 1; value = get_u16 pdu 3 }
      | code -> raise (Decode_error (Printf.sprintf "unsupported function 0x%02x" code))
  in
  { transaction; unit_id; body }

(* Note: a Coils response rounds the bit count up to a whole byte; callers
   truncate to the count they asked for. *)
let truncate_coils bits count =
  List.filteri (fun i _ -> i < count) bits

let describe_request = function
  | Read_coils { addr; count } -> Printf.sprintf "read-coils %d+%d" addr count
  | Write_single_coil { addr; value } -> Printf.sprintf "write-coil %d=%b" addr value
  | Read_holding_registers { addr; count } -> Printf.sprintf "read-regs %d+%d" addr count
  | Write_single_register { addr; value } -> Printf.sprintf "write-reg %d=%d" addr value
