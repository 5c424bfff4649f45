(* Circuit breaker device model.

   A breaker distinguishes the *commanded* position (what the PLC coil
   asks for) from the *actual* position (reached after mechanical
   actuation). The Section V measurement device flips breakers physically
   — bypassing any command path — which is modelled by [force]. *)

type position = Open | Closed

(* Mechanical actuation time from coil command to contact (seconds). *)
let actuation_delay = 0.08

type t = {
  name : string;
  engine : Sim.Engine.t;
  mutable commanded : position;
  mutable actual : position;
  mutable listeners : (t -> unit) list;
  mutable actuations : int;
}

let create ~engine name =
  {
    name;
    engine;
    commanded = Closed;
    actual = Closed;
    listeners = [];
    actuations = 0;
  }

let name t = t.name

let actual t = t.actual

let commanded t = t.commanded

let actuations t = t.actuations

let is_closed t = t.actual = Closed

let on_change t f = t.listeners <- f :: t.listeners

let notify t = List.iter (fun f -> f t) t.listeners

(* Every physical position change opens a pipeline trace: the status
   update it will cause carries the same key all the way to the HMI. *)
let mark_flip t =
  Obs.Registry.mark_status Obs.Registry.default ~breaker:t.name ~closed:(t.actual = Closed)
    ~stage:Obs.Registry.stage_flip ~time:(Sim.Engine.now t.engine)

(* Drive the breaker toward the commanded position after the mechanical
   delay. A newer command supersedes an in-flight one: the check against
   [commanded] at fire time makes stale actuations harmless. *)
let command t position =
  t.commanded <- position;
  if t.actual <> position then
    ignore
      (Sim.Engine.schedule t.engine ~delay:actuation_delay (fun () ->
           if t.commanded = position && t.actual <> position then begin
             t.actual <- position;
             t.actuations <- t.actuations + 1;
             mark_flip t;
             notify t
           end))

(* Physical flip (maintenance lever, or the measurement device of
   Section V): takes effect immediately and also updates the commanded
   position, as the mechanical linkage does. *)
let force t position =
  t.commanded <- position;
  if t.actual <> position then begin
    t.actual <- position;
    t.actuations <- t.actuations + 1;
    mark_flip t;
    notify t
  end

let toggle_force t = force t (match t.actual with Open -> Closed | Closed -> Open)

let position_to_string = function Open -> "open" | Closed -> "closed"

let pp ppf t = Fmt.pf ppf "%s=%s" t.name (position_to_string t.actual)
