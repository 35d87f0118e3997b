type t =
  | Const of int
  | Item of Item.t
  | Param of string
  | Neg of t
  | Add of t * t
  | Sub of t * t
  | Mul of t * t
  | Div of t * t
  | Mod of t * t
  | Min of t * t
  | Max of t * t

let rec eval ~param ~read = function
  | Const n -> n
  | Item x -> read x
  | Param p -> param p
  | Neg e -> -eval ~param ~read e
  | Add (a, b) -> eval ~param ~read a + eval ~param ~read b
  | Sub (a, b) -> eval ~param ~read a - eval ~param ~read b
  | Mul (a, b) -> eval ~param ~read a * eval ~param ~read b
  | Div (a, b) ->
    let d = eval ~param ~read b in
    if d = 0 then 0 else eval ~param ~read a / d
  | Mod (a, b) ->
    let d = eval ~param ~read b in
    if d = 0 then 0 else eval ~param ~read a mod d
  | Min (a, b) -> min (eval ~param ~read a) (eval ~param ~read b)
  | Max (a, b) -> max (eval ~param ~read a) (eval ~param ~read b)

let rec add_items e acc =
  match e with
  | Const _ | Param _ -> acc
  | Item x -> Item.Set.add x acc
  | Neg e -> add_items e acc
  | Add (a, b) | Sub (a, b) | Mul (a, b) | Div (a, b) | Mod (a, b) | Min (a, b) | Max (a, b)
    -> add_items b (add_items a acc)

let items e = add_items e Item.Set.empty

let rec params = function
  | Const _ | Item _ -> []
  | Param p -> [ p ]
  | Neg e -> params e
  | Add (a, b) | Sub (a, b) | Mul (a, b) | Div (a, b) | Mod (a, b) | Min (a, b) | Max (a, b)
    -> params a @ params b

let rec pp ppf = function
  | Const n -> Format.pp_print_int ppf n
  | Item x -> Item.pp ppf x
  | Param p -> Format.fprintf ppf "$%s" p
  | Neg e -> Format.fprintf ppf "-(%a)" pp e
  | Add (a, b) -> Format.fprintf ppf "(%a + %a)" pp a pp b
  | Sub (a, b) -> Format.fprintf ppf "(%a - %a)" pp a pp b
  | Mul (a, b) -> Format.fprintf ppf "(%a * %a)" pp a pp b
  | Div (a, b) -> Format.fprintf ppf "(%a / %a)" pp a pp b
  | Mod (a, b) -> Format.fprintf ppf "(%a %% %a)" pp a pp b
  | Min (a, b) -> Format.fprintf ppf "min(%a, %a)" pp a pp b
  | Max (a, b) -> Format.fprintf ppf "max(%a, %a)" pp a pp b

let equal a b = a = b
let int n = Const n
let item x = Item x
let param p = Param p
let ( + ) a b = Add (a, b)
let ( - ) a b = Sub (a, b)
let ( * ) a b = Mul (a, b)
