"""Quaternion-based human motion modeling: rotation math, a small
reverse-mode autodiff engine, kinematics, motion data handling, pose networks,
training, the locomotion stage, and an evaluation protocol."""

__version__ = "0.1.0"

from .rotmath import (
    qmul,
    qconj,
    normalize,
    rotate_vector,
    quat_to_matrix,
    quat_to_euler,
    euler_to_quat,
    quat_to_expmap,
    expmap_to_quat,
    axis_angle_quat,
    wrap_angle,
    fix_continuity,
    quat_mean,
    slerp,
    EulerAngles,
    TAIT_BRYAN_ORDERS,
)
from .kinematics import (
    Skeleton,
    forward_kinematics,
    forward_kinematics_tensor,
    position_error,
    velocity_error,
    ik_reproject,
    IkConfig,
)
from .autodiff import Tensor, NumericalError, TapeConsumedError
from .optim import AdamState, adam_step, clip_global_norm
from .motiondata import (
    MotionClip,
    load_bvh,
    save_bvh,
    load_clip,
    save_clip,
    load_dataset,
    save_dataset,
    mirror,
    downsample_all_phases,
    prune_constant_joints,
    EpisodeSampler,
)
from .models import (
    PoseNetwork,
    PoseNetworkConfig,
    save_checkpoint,
    load_checkpoint,
    PARAMETERIZATIONS,
)
from .training import (
    TrainConfig,
    PaceTrainConfig,
    train_pose,
    free_run_predict,
    euler_error,
    loss_quat_dot,
    loss_euler_l1,
    loss_positional,
)
from .locomotion import (
    TrajectorySpline,
    fit_spline,
    GaitFeatures,
    extract_gait_features,
    synth_gait,
    make_synth_corpus,
    PaceNetwork,
    PaceNetworkConfig,
    generate_locomotion,
    GenerationDivergedError,
    train_pace,
)
from .evaluation import (
    EvalProtocol,
    EvalReport,
    run_protocol,
    baseline_zero_velocity,
    baseline_running_average,
    bootstrap_ci,
)
