"""Multi-shot story-to-video pipeline with an exactly solvable toy
diffusion backend.

The package turns a one-sentence story into N five-domain shot scripts,
renders identity-consistent keyframes, samples per-shot latent clips, and
smooths across shot boundaries with a FIFO queue of latents at staggered
noise levels. Every numeric stage runs against an analytic Gaussian
denoiser, so the whole pipeline is verifiable by hand algebra and Monte
Carlo rather than by eyeballing generations; real models plug in through
the denoiser, text encoder, feature extractor and LLM client adapter
interfaces.
"""

from .casting import (
    AvatarProfile,
    Keyframe,
    derive_avatars,
    encode_image_mock,
    generate_keyframe,
    render_avatar,
)
from .clips import ShotClip, build_shot_condition, generate_shot_clip
from .conditioning import (
    Condition,
    Embedding,
    attention,
    compose_condition,
    encode_text_mock,
)
from .config import PipelineConfig
from .diffusion import (
    AnalyticDenoiser,
    GaussianWorld,
    NoiseSchedule,
    add_noise,
    analytic_eps,
    ddim_step,
    make_schedule,
    sample_reverse,
)
from .metrics import (
    IdentityChannelMean,
    MetricsReport,
    StyleGram,
    build_report,
    clip_score_mock,
    consistency_scores,
    psnr,
)
from .pipeline import RunArtifacts, compute_metrics_for_run, run_pipeline
from .script import (
    HttpLlmClient,
    MockLlmClient,
    ShotDescription,
    ShotScript,
    Story,
    expand_story,
    generate_script_sequence,
    generate_shot_script,
    parse_story,
    serialize_story,
)
from .smoothing import (
    DenoiseTrace,
    LatentQueue,
    VideoTimeline,
    init_queue,
    run_timeline,
    tick,
)
from .tensorio import read_tensor_file, write_tensor_file

__version__ = "0.1.0"
